package metrics

import (
	"fmt"
	"strings"

	"icash/internal/sim"
)

// StationStats is the per-device-station accounting the concurrency
// engine produces for one measured run: utilization of the station over
// the run, the queue-wait distribution, and queue-pressure indicators.
// One station is one independently serving unit — an HDD actuator, an
// SSD channel, one member of a RAID stripe.
type StationStats struct {
	// Name identifies the station ("hdd0", "ssd.ch2", ...).
	Name string
	// Ops counts requests served by the station.
	Ops int64
	// Busy is total service time (utilization numerator).
	Busy sim.Duration
	// Utilization is Busy over the observation window, in [0, 1].
	Utilization float64
	// QueuePeak is the largest queue occupancy observed.
	QueuePeak int
	// Stalls counts admissions that found the bounded queue full.
	Stalls int64
	// Wait is the queue-wait histogram (arrival to service start).
	Wait Histogram
	// Service is the service-time distribution after fail-slow shaping,
	// with tail-percentile resolution.
	Service Histogram
	// SlowOps counts requests inflated by a fail-slow plan; SlowTime is
	// the total extra service time injected.
	SlowOps  int64
	SlowTime sim.Duration
}

// String renders one scoreboard row.
func (s StationStats) String() string {
	wait := "no samples"
	if w := &s.Wait; w.Count() > 0 {
		wait = fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v", w.Count(), w.Mean(), w.P50(), w.P99(), w.Max())
	}
	row := fmt.Sprintf("%-8s ops=%-7d util=%5.1f%% qpeak=%-3d stalls=%-5d wait[%s]",
		s.Name, s.Ops, 100*s.Utilization, s.QueuePeak, s.Stalls, wait)
	if s.Service.Count() > 0 {
		row += fmt.Sprintf(" svc[p50=%v p99=%v p999=%v]",
			s.Service.P50(), s.Service.P99(), s.Service.P999())
	}
	if s.SlowOps > 0 {
		row += fmt.Sprintf(" slow[ops=%d time=%v]", s.SlowOps, s.SlowTime)
	}
	return row
}

// FormatStations renders a station table, one row per station, with the
// given indent. Stations that served nothing are skipped when skipIdle
// is set.
func FormatStations(stations []StationStats, indent string, skipIdle bool) string {
	var b strings.Builder
	for _, s := range stations {
		if skipIdle && s.Ops == 0 {
			continue
		}
		b.WriteString(indent)
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}
