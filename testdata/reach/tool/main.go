// Command tool lives in a second module that imports the fixture module, the
// way the benchmark module imports the library.
package main

import (
	"fmt"

	"reachfixture/internal/lib"
)

func main() {
	fmt.Println(lib.FromTool())
}
