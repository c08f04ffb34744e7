package fault

import (
	"errors"
	"fmt"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// TestClassifySurvivesWrapping: an injected fault wrapped by several
// fmt.Errorf layers (the retry loop, the request path) must still
// classify correctly and expose its typed details to errors.As.
func TestClassifySurvivesWrapping(t *testing.T) {
	mem := blockdev.NewMemDevice(16, 10*sim.Microsecond)
	dev := Wrap(mem, Config{Seed: 1})
	dev.InjectBad(3)

	buf := make([]byte, blockdev.BlockSize)
	_, err := dev.ReadBlock(3, buf)
	if err == nil {
		t.Fatal("injected bad block read succeeded")
	}
	wrapped := fmt.Errorf("request: %w", fmt.Errorf("retry 2: %w", err))

	if got := blockdev.Classify(wrapped); got != blockdev.ClassMedia {
		t.Fatalf("blockdev.Classify(wrapped) = %v, want media", got)
	}
	if !errors.Is(wrapped, blockdev.ErrMedia) {
		t.Fatal("errors.Is(wrapped, ErrMedia) = false")
	}
	var fe *Error
	if !errors.As(wrapped, &fe) {
		t.Fatal("errors.As(wrapped, *fault.Error) = false")
	}
	if fe.Op != "read" || fe.LBA != 3 || blockdev.Classify(fe) != blockdev.ClassMedia {
		t.Fatalf("typed error details = %q/%d/%v, want read/3/media", fe.Op, fe.LBA, blockdev.Classify(fe))
	}
}

// TestClassifyFallsBackToSentinels: errors that did not originate in
// this package classify by their sentinel chain, and unknown
// errors land in ClassOther instead of panicking or misclassifying.
func TestClassifyFallsBackToSentinels(t *testing.T) {
	cases := []struct {
		err  error
		want blockdev.ErrorClass
	}{
		{nil, blockdev.ClassNone},
		{fmt.Errorf("x: %w", blockdev.ErrTransient), blockdev.ClassTransient},
		{fmt.Errorf("x: %w", fmt.Errorf("y: %w", blockdev.ErrDeviceLost)), blockdev.ClassDeviceLost},
		{errors.New("mystery"), blockdev.ClassOther},
	}
	for _, tc := range cases {
		if got := blockdev.Classify(tc.err); got != tc.want {
			t.Errorf("blockdev.Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
