//go:build !amd64 || purego

package aeskern

// kernelTiers: off amd64 and under purego there is one, the stdlib.
func kernelTiers() []tier {
	return []tier{{name: "generic", avail: true, use: func() func() { return func() {} }}}
}
