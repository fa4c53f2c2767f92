//go:build !unix

package main

// processCPU is not measured on this platform; gc.cpu_frac reads 0.
func processCPU() float64 { return 0 }
