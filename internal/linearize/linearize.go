// Package linearize checks recorded concurrent histories for
// linearizability against a sequential model (Herlihy & Wing [19]), the
// correctness condition §6 of the paper targets: "concurrent executions of
// ShardStore are linearizable with respect to the sequential reference
// models".
//
// The checker implements the Wing–Gong tree search with memoization on
// (linearized-set, model-state) pairs, which is exact and fast enough for
// the short histories model-checking harnesses produce.
package linearize

import (
	"fmt"
	"sort"
	"strings"

	"shardstore/internal/vsync"
)

// Spec is the sequential specification.
type Spec struct {
	// Init returns the initial model state. States must be treated as
	// immutable: Step returns a fresh state.
	Init func() any
	// Step applies input to state, returning the output and the next state.
	Step func(state any, input any) (output any, next any)
	// Equal compares an actual operation output with the model's.
	Equal func(modelOutput, actual any) bool
	// Key serializes a state for memoization.
	Key func(state any) string
}

// Operation is one completed operation in a history.
type Operation struct {
	// Client identifies the calling thread (for readability only).
	Client int
	// Input describes the call; Output its observed result.
	Input  any
	Output any
	// Invoke and Return are logical timestamps: Invoke < Return, and
	// operation A happens-before B iff A.Return < B.Invoke.
	Invoke int64
	Return int64
}

func (op Operation) String() string {
	return fmt.Sprintf("c%d[%d,%d] %v -> %v", op.Client, op.Invoke, op.Return, op.Input, op.Output)
}

// Result reports a linearizability check.
type Result struct {
	Ok bool
	// Linearization is a witness order (indexes into the history) when Ok.
	Linearization []int
	// StatesExplored counts search nodes (for the experiment tables).
	StatesExplored int
}

// Check decides whether history is linearizable with respect to spec.
func Check(spec Spec, history []Operation) Result {
	n := len(history)
	if n == 0 {
		return Result{Ok: true}
	}
	if n > 62 {
		panic("linearize: history too long (max 62 operations)")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Determinize search order.
	sort.Slice(idx, func(a, b int) bool { return history[idx[a]].Invoke < history[idx[b]].Invoke })

	seen := make(map[string]bool)
	explored := 0

	var dfs func(mask uint64, state any, order []int) []int
	dfs = func(mask uint64, state any, order []int) []int {
		if mask == (uint64(1)<<uint(n))-1 {
			return order
		}
		memoKey := fmt.Sprintf("%x|%s", mask, spec.Key(state))
		if seen[memoKey] {
			return nil
		}
		seen[memoKey] = true
		explored++
		// minReturn is the earliest return among pending (un-linearized)
		// operations; an operation is a legal next linearization point only
		// if it was invoked before every pending operation returned.
		minReturn := int64(1<<62 - 1)
		for _, i := range idx {
			if mask&(1<<uint(i)) == 0 && history[i].Return < minReturn {
				minReturn = history[i].Return
			}
		}
		for _, i := range idx {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			op := history[i]
			if op.Invoke > minReturn {
				continue // not minimal: another pending op returned first
			}
			out, next := spec.Step(state, op.Input)
			if !spec.Equal(out, op.Output) {
				continue
			}
			if w := dfs(mask|(1<<uint(i)), next, append(append([]int(nil), order...), i)); w != nil {
				return w
			}
		}
		return nil
	}
	witness := dfs(0, spec.Init(), nil)
	return Result{Ok: witness != nil, Linearization: witness, StatesExplored: explored}
}

// Recorder collects a concurrent history from instrumented threads. It is
// safe for use inside shuttle explorations (logical time advances at every
// record call).
type Recorder struct {
	mu    vsync.Mutex
	clock int64
	ops   []Operation
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin records an invocation and returns a completion callback; call it
// with the observed output when the operation returns.
func (r *Recorder) Begin(client int, input any) func(output any) {
	r.mu.Lock()
	r.clock++
	invoke := r.clock
	r.mu.Unlock()
	return func(output any) {
		r.mu.Lock()
		r.clock++
		r.ops = append(r.ops, Operation{Client: client, Input: input, Output: output, Invoke: invoke, Return: r.clock})
		r.mu.Unlock()
	}
}

// History returns the completed operations.
func (r *Recorder) History() []Operation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Operation(nil), r.ops...)
}

// FormatHistory renders a history for failure reports.
func FormatHistory(ops []Operation) string {
	sorted := append([]Operation(nil), ops...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Invoke < sorted[b].Invoke })
	var b strings.Builder
	for _, op := range sorted {
		fmt.Fprintf(&b, "  %s\n", op)
	}
	return b.String()
}

// --- A ready-made spec for key-value stores ---

// KVInput is a put/get/delete/scan call on a key-value store. Scan reads the
// ordered range [Key, End) bounded by Limit (0 = unbounded; empty End
// unbounded), the cursor contract of store.KV's Scan.
type KVInput struct {
	Op    string // "put", "get", "delete", "scan"
	Key   string
	Value string
	End   string
	Limit int
}

func (in KVInput) String() string {
	switch in.Op {
	case "put":
		return fmt.Sprintf("put(%s=%s)", in.Key, in.Value)
	case "scan":
		return fmt.Sprintf("scan([%s..%s), limit %d)", in.Key, in.End, in.Limit)
	default:
		return fmt.Sprintf("%s(%s)", in.Op, in.Key)
	}
}

// KVOutput is the observed result: for gets, the value or absence; for
// scans, the page rendered as sorted "k=v" pairs joined by NUL, plus the
// continuation flag.
type KVOutput struct {
	Value string
	Found bool
	Err   bool
	More  bool
}

func (out KVOutput) String() string {
	if out.Err {
		return "<error>"
	}
	if !out.Found {
		return "<absent>"
	}
	return out.Value
}

type kvState struct {
	// immutable persistent map encoded as sorted "k=v" strings
	repr string
}

// KVSpec returns the sequential specification of a key-value store: the
// reference model of §3.2 packaged for the linearizability checker.
func KVSpec() Spec {
	parse := func(s string) map[string]string {
		m := make(map[string]string)
		if s == "" {
			return m
		}
		for _, kv := range strings.Split(s, "\x00") {
			i := strings.IndexByte(kv, '=')
			m[kv[:i]] = kv[i+1:]
		}
		return m
	}
	render := func(m map[string]string) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+m[k])
		}
		return strings.Join(parts, "\x00")
	}
	return Spec{
		Init: func() any { return kvState{} },
		Step: func(state, input any) (any, any) {
			st := state.(kvState)
			in := input.(KVInput)
			m := parse(st.repr)
			switch in.Op {
			case "put":
				m[in.Key] = in.Value
				return KVOutput{Found: true}, kvState{repr: render(m)}
			case "delete":
				delete(m, in.Key)
				return KVOutput{Found: false}, kvState{repr: render(m)}
			case "scan":
				keys := make([]string, 0, len(m))
				for k := range m {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var page []string
				more := false
				for _, k := range keys {
					if k < in.Key || (in.End != "" && k >= in.End) {
						continue
					}
					if in.Limit > 0 && len(page) >= in.Limit {
						more = true
						break
					}
					page = append(page, k+"="+m[k])
				}
				return KVOutput{Value: strings.Join(page, "\x00"), Found: true, More: more}, st
			default: // get
				v, ok := m[in.Key]
				return KVOutput{Value: v, Found: ok}, st
			}
		},
		Equal: func(modelOut, actual any) bool {
			mo := modelOut.(KVOutput)
			ao := actual.(KVOutput)
			if ao.Err {
				return false // failed operations are never linearizable here
			}
			if mo.Found != ao.Found || mo.More != ao.More {
				return false
			}
			return !mo.Found || mo.Value == ao.Value
		},
		Key: func(state any) string { return state.(kvState).repr },
	}
}
