package main

// Example runs the program and pins its output, so `go test` keeps it
// working and deterministic.
func Example() {
	main()
	// Output:
	// area monitoring: fraction of sensor reports reaching the fleet
	// speed m/s               baseline     buffer10+viewsync    buffer100+physical
	// 1              0.566 (range 89m)     1.000 (range 98m)    1.000 (range 188m)
	// 10             0.212 (range 82m)     0.997 (range 92m)    1.000 (range 181m)
	// 20             0.156 (range 86m)     0.961 (range 97m)    1.000 (range 185m)
	// 40             0.071 (range 81m)     0.814 (range 94m)    1.000 (range 180m)
	// 80             0.053 (range 81m)     0.666 (range 98m)    0.998 (range 181m)
	//
	// the buffer zone + view synchronization recover report delivery at a
	// fraction of the power a 250 m fixed-range deployment would spend.
}
