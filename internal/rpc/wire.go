package rpc

import (
	"encoding/json"
	"fmt"

	"shardstore/internal/obs"
)

// wireReq is one decoded request, the form dispatch works on.
type wireReq struct {
	op     Opcode
	key    string // also the scan and list start bound
	value  []byte
	keys   []string
	values [][]byte
	disk   int
	// end/limit are the scan or list range's exclusive upper bound (""
	// unbounded) and page limit (0 unbounded; the server clamps pages
	// anyway).
	end   string
	limit int
	// durable requests an acknowledgment only after the mutation is
	// persistent (group commit). Carried in the v2 frame header's flag byte,
	// not the payload.
	durable bool
}

// wireResp is one response before encoding.
type wireResp struct {
	code Code
	msg  string

	value     []byte       // get
	keys      []string     // list and scan page keys
	itemCodes []Code       // mget/mput/mdelete per-item outcomes
	values    [][]byte     // mget per-item values (parallel to itemCodes); scan page values
	next      string       // list and scan continuation token ("" = range exhausted)
	stats     *Stats       // stats
	scrub     *ScrubStatus // scrub, scrub_status
	metrics   *obs.Snapshot
	trace     *TraceDump // trace, slowlog
}

func respErr(code Code, msg string) *wireResp { return &wireResp{code: code, msg: msg} }

// encodeReq serializes a request payload (client side).
func encodeReq(q *wireReq) ([]byte, error) {
	var w wireBuf
	switch q.op {
	case opPut:
		w.str(q.key)
		w.b = append(w.b, q.value...) // raw tail: no length, no base64
	case opGet, opDelete:
		w.str(q.key)
	case opScan, opList:
		w.str(q.key)
		w.str(q.end)
		w.u32(uint32(q.limit))
	case opStats, opMetrics, opTrace, opSlowLog:
		// empty payload
	case opRemoveDisk, opReturnDisk, opFlush, opScrub, opScrubStatus:
		w.u32(uint32(q.disk))
	case opBulkCreate, opMPut:
		if len(q.keys) != len(q.values) {
			return nil, fmt.Errorf("%w: %d keys, %d values", ErrBadRequest, len(q.keys), len(q.values))
		}
		w.u32(uint32(len(q.keys)))
		for i, k := range q.keys {
			w.str(k)
			w.bytes(q.values[i])
		}
	case opBulkRemove, opMGet, opMDelete:
		w.u32(uint32(len(q.keys)))
		for _, k := range q.keys {
			w.str(k)
		}
	default:
		return nil, fmt.Errorf("%w: unknown opcode %d", ErrBadRequest, q.op)
	}
	return w.b, nil
}

// decodeReq parses a request payload (server side).
func decodeReq(op Opcode, payload []byte) (*wireReq, error) {
	q := &wireReq{op: op}
	r := wireReader{b: payload}
	var err error
	switch op {
	case opPut:
		if q.key, err = r.str(); err != nil {
			return nil, err
		}
		q.value = r.rest()
	case opGet, opDelete:
		if q.key, err = r.str(); err != nil {
			return nil, err
		}
	case opScan, opList:
		if q.key, err = r.str(); err != nil {
			return nil, err
		}
		if q.end, err = r.str(); err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		q.limit = int(n)
	case opStats, opMetrics, opTrace, opSlowLog:
	case opRemoveDisk, opReturnDisk, opFlush, opScrub, opScrubStatus:
		d, err := r.u32()
		if err != nil {
			return nil, err
		}
		q.disk = int(d)
	case opBulkCreate, opMPut:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			v, err := r.bytes()
			if err != nil {
				return nil, err
			}
			q.keys = append(q.keys, k)
			q.values = append(q.values, v)
		}
	case opBulkRemove, opMGet, opMDelete:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			q.keys = append(q.keys, k)
		}
	default:
		return nil, fmt.Errorf("unknown opcode %d", op)
	}
	return q, nil
}

// encodeResp serializes a response payload (server side). Layout: u16
// status code; on failure a message string and nothing else; on success the
// op-specific body.
func encodeResp(op Opcode, p *wireResp) ([]byte, error) {
	var w wireBuf
	w.u16(uint16(p.code))
	if p.code != CodeOK {
		w.str(p.msg)
		return w.b, nil
	}
	switch op {
	case opGet:
		w.b = append(w.b, p.value...) // raw tail
	case opList:
		w.u32(uint32(len(p.keys)))
		for _, k := range p.keys {
			w.str(k)
		}
		w.str(p.next)
	case opScan:
		w.u32(uint32(len(p.keys)))
		for i, k := range p.keys {
			w.str(k)
			w.bytes(p.values[i])
		}
		w.str(p.next)
	case opMGet:
		w.u32(uint32(len(p.itemCodes)))
		for i, c := range p.itemCodes {
			w.u16(uint16(c))
			var v []byte
			if i < len(p.values) {
				v = p.values[i]
			}
			w.bytes(v)
		}
	case opMPut, opMDelete:
		w.u32(uint32(len(p.itemCodes)))
		for _, c := range p.itemCodes {
			w.u16(uint16(c))
		}
	case opStats:
		return appendJSON(w, p.stats)
	case opScrub, opScrubStatus:
		return appendJSON(w, p.scrub)
	case opMetrics:
		return appendJSON(w, p.metrics)
	case opTrace, opSlowLog:
		return appendJSON(w, p.trace)
	}
	return w.b, nil
}

// appendJSON attaches a control-plane blob (stats, scrub state, metrics
// snapshots are low-rate and structurally rich; JSON keeps them evolvable
// without a schema change — the hot request plane never goes through here).
func appendJSON(w wireBuf, v any) ([]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	w.bytes(blob)
	return w.b, nil
}

// decodeResp parses a response payload (client side).
func decodeResp(op Opcode, payload []byte) (*wireResp, error) {
	r := wireReader{b: payload}
	c, err := r.u16()
	if err != nil {
		return nil, err
	}
	p := &wireResp{code: Code(c)}
	if p.code != CodeOK {
		if p.msg, err = r.str(); err != nil {
			return nil, err
		}
		return p, nil
	}
	switch op {
	case opGet:
		p.value = r.rest()
	case opList:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			p.keys = append(p.keys, k)
		}
		if p.next, err = r.str(); err != nil {
			return nil, err
		}
	case opScan:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			v, err := r.bytes()
			if err != nil {
				return nil, err
			}
			p.keys = append(p.keys, k)
			p.values = append(p.values, v)
		}
		if p.next, err = r.str(); err != nil {
			return nil, err
		}
	case opMGet:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			c, err := r.u16()
			if err != nil {
				return nil, err
			}
			v, err := r.bytes()
			if err != nil {
				return nil, err
			}
			p.itemCodes = append(p.itemCodes, Code(c))
			p.values = append(p.values, v)
		}
	case opMPut, opMDelete:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			c, err := r.u16()
			if err != nil {
				return nil, err
			}
			p.itemCodes = append(p.itemCodes, Code(c))
		}
	case opStats:
		p.stats = &Stats{}
		if err := decodeJSON(&r, p.stats); err != nil {
			return nil, err
		}
	case opScrub, opScrubStatus:
		p.scrub = &ScrubStatus{}
		if err := decodeJSON(&r, p.scrub); err != nil {
			return nil, err
		}
	case opMetrics:
		p.metrics = &obs.Snapshot{}
		if err := decodeJSON(&r, p.metrics); err != nil {
			return nil, err
		}
	case opTrace, opSlowLog:
		p.trace = &TraceDump{}
		if err := decodeJSON(&r, p.trace); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func decodeJSON(r *wireReader, v any) error {
	blob, err := r.bytes()
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}
