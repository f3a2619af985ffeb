package main

// Example runs the program and pins its output, so `go test` keeps it
// working and deterministic.
func Example() {
	main()
	// Output:
	// == inconsistent views (the failure of Fig. 2) ==
	// u selects [v]  (drops w: in u's view the u-w link is the longest)
	// v selects [u]  (drops w: in v's view the v-w link is the longest)
	// -> w is isolated in the logical topology: PARTITION
	//
	// == strong consistency (both pinned to w's old Hello) ==
	// u selects [v]
	// v selects [u w]  (keeps w)
	// w selects [v]
	// -> logical topology u-v-w is CONNECTED (Theorem 1)
	//
	// == weak consistency (both keep k=2 recent Hellos) ==
	// u selects [v w]
	// v selects [u w]
	// -> conservative decisions keep enough links: CONNECTED (Theorem 4)
}
