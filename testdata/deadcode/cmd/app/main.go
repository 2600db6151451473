// Command app calls the fixture's live API.
package main

import "fixture/internal/lib"

func main() {
	r := lib.Run(lib.Options{Size: 4})
	println(r.Total + lib.Used())
}
