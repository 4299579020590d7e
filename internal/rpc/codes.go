package rpc

import (
	"errors"
	"fmt"

	"shardstore/internal/store"
)

// Code is a stable wire error code (u16 in the v2 status field). Codes are
// the contract: clients match on the sentinel errors below with errors.Is,
// never on message text. See doc.go for the meaning of each code.
type Code uint16

// The error-code taxonomy. Values are wire-stable: never renumber.
const (
	CodeOK            Code = 0
	CodeNotFound      Code = 1
	CodeOutOfService  Code = 2
	CodeBadRequest    Code = 3
	CodeInternal      Code = 4
	CodeFrameTooLarge Code = 5
	CodeShutdown      Code = 6
	CodeUnsupported   Code = 7
)

// String returns the code's snake_case name (error text, doc.go's table).
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeNotFound:
		return "not_found"
	case CodeOutOfService:
		return "out_of_service"
	case CodeBadRequest:
		return "bad_request"
	case CodeInternal:
		return "internal"
	case CodeFrameTooLarge:
		return "frame_too_large"
	case CodeShutdown:
		return "shutdown"
	case CodeUnsupported:
		return "unsupported"
	default:
		return fmt.Sprintf("code_%d", uint16(c))
	}
}

// Sentinel errors, one per non-OK code. A failed call returns a *WireError
// whose Is method matches the code's sentinel, so callers write
// errors.Is(err, rpc.ErrNotFound) and keep working if the server adds
// detail to the message.
var (
	ErrNotFound      = errors.New("rpc: shard not found")
	ErrOutOfService  = errors.New("rpc: disk out of service")
	ErrBadRequest    = errors.New("rpc: bad request")
	ErrInternal      = errors.New("rpc: internal error")
	ErrFrameTooLarge = errors.New("rpc: frame exceeds MaxFrame")
	ErrShutdown      = errors.New("rpc: server shutting down")
	ErrUnsupported   = errors.New("rpc: operation unsupported by backend")
)

// sentinel returns the package-level sentinel for a code.
func (c Code) sentinel() error {
	switch c {
	case CodeNotFound:
		return ErrNotFound
	case CodeOutOfService:
		return ErrOutOfService
	case CodeBadRequest:
		return ErrBadRequest
	case CodeFrameTooLarge:
		return ErrFrameTooLarge
	case CodeShutdown:
		return ErrShutdown
	case CodeUnsupported:
		return ErrUnsupported
	default:
		return ErrInternal
	}
}

// WireError is a non-OK response surfaced to the caller: the stable code
// plus the server's human-readable message. errors.Is(err, <sentinel>)
// matches by code.
type WireError struct {
	Code Code
	Msg  string
}

func (e *WireError) Error() string {
	if e.Msg == "" {
		return "rpc: " + e.Code.String()
	}
	return "rpc: " + e.Msg
}

// Is matches the sentinel error for e's code.
func (e *WireError) Is(target error) bool { return target == e.Code.sentinel() }

// wireErr builds the error a client returns for a non-OK (code, msg) pair.
func wireErr(code Code, msg string) error {
	if code == CodeOK {
		return nil
	}
	return &WireError{Code: code, Msg: msg}
}

// codeFor classifies a server-side error into its wire code.
func codeFor(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, store.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, store.ErrOutOfService):
		return CodeOutOfService
	case errors.Is(err, ErrFrameTooLarge):
		return CodeFrameTooLarge
	default:
		return CodeInternal
	}
}
