// Command icash-vet runs the repo-specific static analyzer suite
// (internal/analysis) over the module: detclock, maporder, errclass,
// goroutines and staleignore — the compile-time enforcement of the
// determinism, error-handling and concurrency-containment invariants
// the simulation's correctness rests on.
//
// Usage:
//
//	icash-vet [-list] [-json] [-strict] [packages]
//
// Package patterns are module-relative ("./...", "./internal/ssd");
// the default is "./...". Findings print one per line in vet format
// (file:line:col: analyzer: message) and any finding exits 1, with one
// exception: staleignore findings (suppression directives that no
// longer suppress anything) are warnings unless -strict. -json emits
// the icash-vet/1 JSON document instead of text. A known-good site is
// suppressed with a //lint:ignore directive on its line or the line
// above:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"icash/internal/analysis"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		list    = flag.Bool("list", false, "list the analyzer catalog and exit")
		jsonOut = flag.Bool("json", false, "emit findings as an icash-vet/1 JSON document")
		strict  = flag.Bool("strict", false, "treat staleignore findings as errors, not warnings")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: icash-vet [-list] [-json] [-strict] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Catalog() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "icash-vet:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icash-vet:", err)
		return 2
	}
	findings, err := analysis.Vet(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icash-vet:", err)
		return 2
	}

	// Stale suppressions are hygiene, not correctness: warn by default,
	// fail only under -strict (CI). Everything else is hard.
	var hard, stale []analysis.Finding
	for _, f := range findings {
		if f.Analyzer == "staleignore" {
			stale = append(stale, f)
		} else {
			hard = append(hard, f)
		}
	}

	failing := hard
	if *strict {
		failing = append(failing, stale...)
	}

	if *jsonOut {
		out, err := analysis.MarshalFindings(root, failing)
		if err != nil {
			fmt.Fprintln(os.Stderr, "icash-vet:", err)
			return 2
		}
		fmt.Println(string(out))
	} else {
		for _, f := range hard {
			fmt.Println(f)
		}
		for _, f := range stale {
			if *strict {
				fmt.Println(f)
			} else {
				fmt.Printf("warning: %s\n", f)
			}
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "icash-vet: %d finding(s)\n", len(failing))
		return 1
	}
	return 0
}
