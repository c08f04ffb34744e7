package analysis

import (
	"go/ast"
	"strings"
)

// DetClock proves the simulation's determinism-of-time invariant: code
// under icash/internal/ must never observe or depend on wall-clock
// time, and the shared sim.Clock may only be mutated by the packages
// that drive runs.
//
// Concretely it flags, in any package under icash/internal/:
//
//   - calls to time.Now, time.Since, time.Until, time.Sleep,
//     time.After, time.Tick, time.NewTimer, time.NewTicker and
//     time.AfterFunc (wall-clock reads and timers);
//   - imports of math/rand and math/rand/v2 (unseeded global state;
//     simulation code must use sim.Rand, which is deterministic and
//     per-stream seedable);
//   - argless time.Time construction (time.Time{} composite literals)
//     — a zero wall-clock instant smuggled into simulated state;
//   - calls to the mutating sim.Clock methods (Advance, AdvanceTo,
//     Reset) from any package other than the run-driving owners:
//     internal/sim itself, the event scheduler (internal/sim/event)
//     and the experiment harness (internal/harness), whose pump every
//     other run-driver (the chaos soak included) issues through. Device
//     models receive latencies and return them; they never advance the
//     timeline.
//
// The last rule is the static generalization of the `clockcheck`
// build-tag runtime assertion (internal/sim/clockcheck_on.go), which
// binds a Clock to the first goroutine that mutates it and panics on
// mutation from any other. The runtime assertion stays as
// defense-in-depth — it catches ownership hand-offs between goroutines
// that a per-package view cannot — while detclock rejects, at vet
// time, any diff that teaches a non-driver package to move time.
// Change one enforcement layer only together with the other.
var DetClock = &Analyzer{
	Name: "detclock",
	Doc:  "forbid wall-clock time, math/rand, and out-of-owner sim.Clock mutation in simulation packages",
	Run:  runDetClock,
}

// wallClockFuncs are the package-level time functions that read or act
// on the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// clockOwnerPkgs are the packages allowed to mutate a sim.Clock: the
// layers that drive simulation runs (see the Clock single-owner rule,
// DESIGN.md §8).
var clockOwnerPkgs = map[string]bool{
	"icash/internal/sim":       true,
	"icash/internal/sim/event": true,
	"icash/internal/harness":   true,
}

// engineOwnerPkgs are run-driving packages that own the clock only
// through the event engine: they build schedulers and compose whole
// served runs, but every instant they touch must come from a scheduled
// event, never from mutating the clock directly. The block-service
// front-end is the archetype — its sessions are stations on the
// engine, so a direct Advance would fork the timeline out from under
// its own scheduler. They get a tailored diagnostic instead of a pass.
var engineOwnerPkgs = map[string]bool{
	"icash/internal/server": true,
}

// clockMutators are the sim.Clock methods that move or rewind time.
var clockMutators = map[string]bool{
	"Advance": true, "AdvanceTo": true, "Reset": true,
}

const simPkgPath = "icash/internal/sim"

func runDetClock(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path(), "icash/internal/") {
		return
	}
	ownsClock := clockOwnerPkgs[pass.Pkg.Path()]
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"import of %s in a simulation package: use sim.Rand for deterministic, per-stream seedable randomness", strings.Trim(imp.Path.Value, `"`))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] && !isMethod(fn) {
					pass.Reportf(n.Pos(),
						"wall-clock call time.%s in a simulation package: simulated time comes from sim.Clock", fn.Name())
					return true
				}
				if fn.Pkg().Path() == simPkgPath && clockMutators[fn.Name()] && isMethod(fn) && !ownsClock {
					if recvIsSimClock(fn) {
						if engineOwnerPkgs[pass.Pkg.Path()] {
							pass.Reportf(n.Pos(),
								"sim.Clock.%s in an engine-owner package: this package drives runs only through the event scheduler — schedule an event at the target instant instead of mutating the clock", fn.Name())
						} else {
							pass.Reportf(n.Pos(),
								"sim.Clock.%s called outside the run-driving packages: only the scheduler/harness layer advances time (see the clockcheck runtime assertion, internal/sim/clockcheck_on.go)", fn.Name())
						}
					}
				}
			case *ast.CompositeLit:
				if p, name, ok := namedTypePath(pass.Info.TypeOf(n)); ok && p == "time" && name == "Time" && len(n.Elts) == 0 {
					pass.Reportf(n.Pos(),
						"argless time.Time construction in a simulation package: use sim.Time on the simulated timeline")
				}
			}
			return true
		})
	}
}
