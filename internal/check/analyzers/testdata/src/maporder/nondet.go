// Package maporder is the seeded-violation fixture for maprange: each
// function below leaks map iteration order into what it produces.
package maporder

import "fmt"

// simState is a stand-in for simulated machine state.
type simState struct {
	latency map[string]uint64
}

// dump prints map entries in iteration order.
func dump(s *simState) {
	for k, v := range s.latency {
		fmt.Printf("%s=%d\n", k, v)
	}
}

// unsortedKeys collects keys but never sorts them.
func unsortedKeys(s *simState) []string {
	var keys []string
	for k := range s.latency {
		keys = append(keys, k)
	}
	return keys
}
