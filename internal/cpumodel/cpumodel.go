// Package cpumodel accounts simulated CPU time. The paper's Figures 6(b),
// 8(b) and 10(b) report host CPU utilization for each storage system;
// I-CASH trades CPU cycles (delta compression, decompression, signature
// computation, similarity scanning) for mechanical I/O, and the claim is
// that the added utilization stays within a few percent.
//
// The model splits CPU busy time into application work (charged by the
// workload generator per request) and storage-stack work (charged by the
// storage system under test). The harness turns the storage share into
// utilization over a run's elapsed simulated time.
package cpumodel

import "icash/internal/sim"

// Costs is the compute-cost table used by the I-CASH controller and the
// baselines. The constants follow the paper's measurements: ~10 µs to
// decompress (combine delta with reference) and a compression step that
// is the most expensive part of a write (§5.1).
type Costs struct {
	// DeltaEncode is the cost to delta-compress one 4 KB block against
	// a reference.
	DeltaEncode sim.Duration
	// DeltaDecode is the cost to reconstruct a block from reference +
	// delta (the paper's 10 µs decompression).
	DeltaDecode sim.Duration
	// Signature is the cost to compute the 8 sub-signatures of a block.
	Signature sim.Duration
	// ScanPerBlock is the per-block cost of the periodic similarity
	// scan (popularity lookup plus candidate comparison amortized).
	ScanPerBlock sim.Duration
	// HashBlock is the cost to content-hash a block (dedup baseline).
	HashBlock sim.Duration
	// PerRequest is fixed request-handling overhead common to every
	// storage system (queueing, context switch).
	PerRequest sim.Duration
}

// DefaultCosts returns the cost table calibrated to the paper's numbers
// on a 1.8 GHz Xeon.
func DefaultCosts() Costs {
	return Costs{
		DeltaEncode:  25 * sim.Microsecond,
		DeltaDecode:  10 * sim.Microsecond,
		Signature:    2 * sim.Microsecond,
		ScanPerBlock: 3 * sim.Microsecond,
		HashBlock:    15 * sim.Microsecond,
		PerRequest:   5 * sim.Microsecond,
	}
}

// Accountant accumulates CPU busy time.
type Accountant struct {
	// AppTime is CPU time charged by the application/workload model.
	AppTime sim.Duration
	// StorageTime is CPU time charged by the storage system (delta
	// coding, hashing, scanning, request overhead).
	StorageTime sim.Duration
}

// NewAccountant returns an accountant with nothing charged.
func NewAccountant() *Accountant { return &Accountant{} }

// ChargeApp adds application CPU time.
func (a *Accountant) ChargeApp(d sim.Duration) { a.AppTime += d }

// ChargeStorage adds storage-stack CPU time.
func (a *Accountant) ChargeStorage(d sim.Duration) { a.StorageTime += d }

// Busy returns total CPU busy time.
func (a *Accountant) Busy() sim.Duration { return a.AppTime + a.StorageTime }

// Reset zeroes accumulated busy time.
func (a *Accountant) Reset() {
	a.AppTime = 0
	a.StorageTime = 0
}
