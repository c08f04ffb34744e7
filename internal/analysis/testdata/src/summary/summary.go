// Package summary is the synthetic package the call-graph/summary unit
// tests walk: a three-deep device-call chain, a pure function, and a
// mutually-recursive pair that pins termination of the memoized
// transitive query.
package summary

type dev struct{}

func (dev) WriteBlock(lba int64, buf []byte) error { return nil }

func leaf(d dev) error {
	return d.WriteBlock(0, nil)
}

func mid(d dev) error {
	return leaf(d)
}

func top(d dev) error {
	return mid(d)
}

func pure() int { return 42 }

func cyclic(n int) error {
	if n > 0 {
		return cyclic2(n - 1)
	}
	return nil
}

func cyclic2(n int) error {
	return cyclic(n)
}
