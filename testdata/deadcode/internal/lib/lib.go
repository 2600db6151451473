// Package lib is the dead-code gate's self-test fixture: one case of each
// finding kind next to the shapes the gate must not report.
package lib

// Used is called from cmd/app.
func Used() int { return helper() }

// DeadExport is called only from lib_test.go: a dead export.
func DeadExport() {}

// helper is called from Used.
func helper() int {
	var s sizer = Doc{Title: "t"}
	seen := map[cell]bool{{x: 1, y: 2}: true}
	return len(seen) + s.size() + promoted() + equal(key{a: 1, b: 2})
}

// testOnly is called only from lib_test.go: a test-only helper.
func testOnly() int { return 1 }

// key's fields are only ever written, but == compares them all.
type key struct{ a, b int }

func equal(k key) int {
	if k == (key{a: 1, b: 2}) {
		return 1
	}
	return 0
}

// cell's fields are only ever written, but a map key hashes them all.
type cell struct{ x, y int }

// Doc's Title is read by reflection through its tag.
type Doc struct {
	Title string `json:"title"`
}

// size is called only through the sizer interface.
func (d Doc) size() int { return 1 }

type sizer interface{ size() int }

// outer reaches inner's field by promotion only.
type outer struct{ inner }

type inner struct{ n int }

func promoted() int {
	var o outer
	o.n = 2
	return o.n
}

// Options is a config struct: Size is set by cmd/app, Unset only by its
// own default-filling method and by tests.
type Options struct {
	Size  int
	Unset int
}

func (o *Options) fill() {
	if o.Size == 0 {
		o.Size = 8
	}
	if o.Unset == 0 {
		o.Unset = 3
	}
}

// Result's Unread (a composite-literal key) and Stale (the left side of
// "=") are written by Run and read only by tests.
type Result struct {
	Total  int
	Unread int
	Stale  bool
}

// Run is called from cmd/app.
func Run(opts Options) Result {
	opts.fill()
	res := Result{Total: opts.Size * opts.Unset, Unread: 1}
	res.Stale = true
	return res
}
