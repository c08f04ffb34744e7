package baseline

import (
	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// PureSSD is the paper's first baseline ("Fusion-io"): the whole data
// set lives on the SSD and every request goes straight to it. It exists
// as a wrapper so the harness drives all five systems through one
// interface and the request-handling CPU overhead is charged uniformly.
type PureSSD struct {
	ssd   blockdev.Device
	cpu   *cpumodel.Accountant
	costs cpumodel.Costs

	// Stats is host-visible accounting.
	Stats blockdev.Stats
}

// NewPureSSD wraps ssd as a standalone storage system.
func NewPureSSD(ssdDev blockdev.Device, cpu *cpumodel.Accountant) *PureSSD {
	return &PureSSD{ssd: ssdDev, cpu: cpu, costs: cpumodel.DefaultCosts()}
}

// Blocks returns the SSD capacity.
func (p *PureSSD) Blocks() int64 { return p.ssd.Blocks() }

// ReadBlock forwards to the SSD.
func (p *PureSSD) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	p.cpu.ChargeStorage(p.costs.PerRequest)
	d, err := p.ssd.ReadBlock(lba, buf)
	if err != nil {
		return 0, err
	}
	p.Stats.NoteRead(blockdev.BlockSize, d)
	return d, nil
}

// WriteBlock forwards to the SSD.
func (p *PureSSD) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	p.cpu.ChargeStorage(p.costs.PerRequest)
	d, err := p.ssd.WriteBlock(lba, buf)
	if err != nil {
		return 0, err
	}
	p.Stats.NoteWrite(blockdev.BlockSize, d)
	return d, nil
}

// Flush is a no-op: the SSD is the durable store.
func (p *PureSSD) Flush() error { return nil }

var _ blockdev.Device = (*PureSSD)(nil)

// ResetStats zeroes the wrapper statistics.
func (p *PureSSD) ResetStats() { p.Stats = blockdev.Stats{} }
