package maporder

import "sort"

// Negative cases: order-insensitive map idioms maprange must not flag.

// total aggregates over a map; addition is order-insensitive.
func total(m map[string]uint64) uint64 {
	var sum uint64
	for _, v := range m {
		sum += v
	}
	return sum
}

// hottest takes a guarded max; order-insensitive.
func hottest(m map[string]uint64) uint64 {
	var max uint64
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// sortedKeys collects then sorts: order is re-established before use.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// index fills another map; insertion order is irrelevant.
func index(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}
