package skyline_test

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/skyline"
)

// Computing the skyline of two symmetric unit disks: the breakpoints fall
// exactly at π/2 and 3π/2.
func ExampleCompute() {
	disks := []geom.Disk{
		geom.NewDisk(0.5, 0, 1),
		geom.NewDisk(-0.5, 0, 1),
	}
	sl, err := skyline.Compute(disks)
	if err != nil {
		panic(err)
	}
	for _, a := range sl {
		fmt.Printf("disk %d owns [%.4f, %.4f]\n", a.Disk, a.Start, a.End)
	}
	// Output:
	// disk 0 owns [0.0000, 1.5708]
	// disk 1 owns [1.5708, 4.7124]
	// disk 0 owns [4.7124, 6.2832]
}

// The skyline set is the minimum local disk cover set (Theorem 3): a disk
// buried under the union of the others contributes no arc.
func ExampleSkyline_Set() {
	disks := []geom.Disk{
		geom.NewDisk(0, 0, 2),      // dominates everything
		geom.NewDisk(0.1, 0, 0.5),  // buried
		geom.NewDisk(-0.1, 0, 0.8), // buried
	}
	sl, err := skyline.Compute(disks)
	if err != nil {
		panic(err)
	}
	fmt.Println(sl.Set())
	// Output: [0]
}

// Exact union area straight from the skyline: one disk's union is πr².
func ExampleSkyline_Area() {
	disks := []geom.Disk{geom.NewDisk(0.3, 0.1, 2)}
	sl, err := skyline.Compute(disks)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.6f\n", sl.Area(disks))
	// Output: 12.566371
}
