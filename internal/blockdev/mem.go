package blockdev

import (
	"icash/internal/sim"
)

// MemDevice is a trivial in-memory device with constant access latency.
// It backs unit tests and serves as the DRAM-resident "device" in a few
// baselines; real models live in the ssd and hdd packages. Its Store
// supplies Blocks, SetFill and the Corrupt test hook.
type MemDevice struct {
	Store
	latency sim.Duration
	Stats   Stats
}

// NewMemDevice returns a memory device with the given capacity in blocks
// and fixed per-request latency.
func NewMemDevice(blocks int64, latency sim.Duration) *MemDevice {
	return &MemDevice{Store: NewStore(blocks), latency: latency}
}

// ReadBlock copies the stored block (zeros if never written) into buf.
func (m *MemDevice) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := m.Check(lba, buf); err != nil {
		return 0, err
	}
	m.Read(lba, buf)
	m.Stats.NoteRead(BlockSize, m.latency)
	return m.latency, nil
}

// WriteBlock stores a copy of buf at lba.
func (m *MemDevice) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := m.Check(lba, buf); err != nil {
		return 0, err
	}
	m.Write(lba, buf)
	m.Stats.NoteWrite(BlockSize, m.latency)
	return m.latency, nil
}

var _ Device = (*MemDevice)(nil)
