package fault

import "fmt"

// Error is the typed error every injected fault carries: the failed
// operation, its target block, and the sentinel that names the fault
// class. Callers that only need the class use blockdev.Classify, which
// reaches the sentinel through Unwrap; callers that need the details
// use errors.As. Both survive arbitrary fmt.Errorf("...: %w", err)
// wrapping by the retry and request paths.
type Error struct {
	// Op is "read" or "write".
	Op string
	// LBA is the target block of the failed operation.
	LBA int64
	// Err is the underlying sentinel (blockdev.ErrMedia, ErrTransient,
	// ErrDeviceLost) or a detail error wrapping one.
	Err error
}

// Error renders the same message shape the injector has always used.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: %s lba %d: %v", e.Op, e.LBA, e.Err)
}

// Unwrap exposes the sentinel chain to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// injectErr builds the injector's typed error for one fault.
func injectErr(op string, lba int64, sentinel error) error {
	return &Error{Op: op, LBA: lba, Err: sentinel}
}
