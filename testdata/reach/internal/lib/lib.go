// Package lib is the reachability check's fixture: each function is reached
// in one way, except Dead and Point.Unused, which nothing reaches.
package lib

import "fmt"

// Point is printed with %v, so only fmt.Stringer reaches its String method.
type Point struct{ X, Y int }

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Unused matches no interface's method, so a reached Point does not reach it.
func (p Point) Unused() int { return p.X }

// Origin is reached from main.
func Origin() Point { return Point{} }

// table is initialized from a package-level var, its only root.
var table = fromVar()

func fromVar() []int { return []int{1, 2, 3} }

// Len is reached from main.
func Len() int { return len(table) }

// FromTool is reached only from the second module's main.
func FromTool() string { return "tool" }

// Dead is reached by nothing.
func Dead() int { return 42 }
