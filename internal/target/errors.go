package target

import (
	"errors"
	"fmt"
)

// ErrNoVisibility is returned by introspection methods (Peek,
// Simulator) on targets that execute the design opaquely: the FPGA
// target exposes only the register port, the interrupt line and the
// snapshot mechanism, exactly like the physical fabric behind a
// debugger.
var ErrNoVisibility = errors.New("target: no visibility into FPGA internals")

// ErrorClass partitions target-layer failures by how the caller must
// react to them.
type ErrorClass int

const (
	// Transient faults (dropped frame, corrupted frame detected by
	// the link CRC, timeout) are expected on a physical link and are
	// absorbed by retry with backoff; they never carry state.
	Transient ErrorClass = iota + 1
	// Fatal faults (dead link, protocol misuse, RTL evaluation
	// failure) are never retried: the operation that hit one fails.
	Fatal
	// Integrity faults mark snapshot data that failed validation
	// (bad checksum, truncation, unknown state names): applying it
	// would silently diverge the hardware, so it is rejected.
	Integrity
)

func (c ErrorClass) String() string {
	switch c {
	case Transient:
		return "transient"
	case Fatal:
		return "fatal"
	case Integrity:
		return "integrity"
	}
	return fmt.Sprintf("ErrorClass(%d)", int(c))
}

// Error is a classified target-layer failure.
type Error struct {
	Class ErrorClass
	Op    string
	Err   error
}

func (e *Error) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("target: %s: %v", e.Class, e.Err)
	}
	return fmt.Sprintf("target: %s: %s: %v", e.Op, e.Class, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Classify returns err's class: the Class of the first *Error in its
// chain, Fatal for any other error, and 0 for nil.
func Classify(err error) ErrorClass {
	if err == nil {
		return 0
	}
	var te *Error
	if errors.As(err, &te) {
		return te.Class
	}
	return Fatal
}

// IsTransient reports whether err is a transient (retryable) fault.
func IsTransient(err error) bool { return Classify(err) == Transient }

func transientf(op, format string, args ...any) error {
	return &Error{Class: Transient, Op: op, Err: fmt.Errorf(format, args...)}
}

func fatalf(op, format string, args ...any) error {
	return &Error{Class: Fatal, Op: op, Err: fmt.Errorf(format, args...)}
}

func integrityf(op, format string, args ...any) error {
	return &Error{Class: Integrity, Op: op, Err: fmt.Errorf(format, args...)}
}
