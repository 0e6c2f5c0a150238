// Package lib is the export scan's fixture library.
package lib

import "fmt"

// Used has a production caller.
func Used() int { return 1 }

// Planted is exported, but only lib's own tests call it.
func Planted() int { return 2 }

// T has a production user.
type T struct{}

// String satisfies fmt.Stringer; nothing calls it by name.
func (T) String() string { return fmt.Sprint("t") }

// Name satisfies the application's Namer; nothing calls it on a T.
func (T) Name() string { return "t" }

// Helper is a method that only the tests call.
func (T) Helper() int { return 3 }
