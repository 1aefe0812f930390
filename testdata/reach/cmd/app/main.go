// Command app is the fixture module's own binary.
package main

import (
	"fmt"

	"reachfixture/internal/lib"
)

func main() {
	fmt.Println(lib.Origin(), lib.Len())
}
