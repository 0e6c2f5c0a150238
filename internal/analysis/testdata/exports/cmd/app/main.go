// Command app is the export scan's fixture application.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

// Namer is satisfied by lib.T.
type Namer interface{ Name() string }

func main() {
	var n Namer = lib.T{}
	fmt.Println(lib.Used(), n.Name())
}
