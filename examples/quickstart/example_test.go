package main

// Example runs the program and pins its output, so `go test` keeps it
// working and deterministic.
func Example() {
	main()
	// Output:
	// network: 100 nodes in 900x900 m, normal range 250 m
	// original topology: 918 links, avg degree 18.4
	//
	// protocol    links   degree    range (m)  connected
	// none          918    18.36        240.9       true
	// MST           102     2.08         81.0       true
	// RNG           120     2.40         96.5       true
	// GG            185     3.70        126.7       true
	// Yao-6         166     5.19        173.6       true
	// SPT-4         122     2.46         93.8       true
	// SPT-2         176     3.52        119.9       true
	//
	// event-driven run (static network, RNG protocol, 20 s):
	//   connectivity ratio 1.000 over 170 floods
	//   avg tx range 96.5 m, logical degree 2.40
}
