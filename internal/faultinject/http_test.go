package faultinject

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestSlowReaderDeliversEverything(t *testing.T) {
	payload := strings.Repeat("x", 100)
	sr := &SlowReader{R: strings.NewReader(payload), Chunk: 7, Delay: time.Microsecond}
	got, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
}

func TestSlowReaderChunksReads(t *testing.T) {
	sr := &SlowReader{R: strings.NewReader("abcdefgh"), Chunk: 3}
	buf := make([]byte, 64)
	n, err := sr.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("first read returned %d bytes, want chunk of 3", n)
	}
}

func TestDisconnectReaderCutsMidBody(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 50)
	dr := &DisconnectReader{R: bytes.NewReader(payload), N: 20}
	got, err := io.ReadAll(dr)
	if !errors.Is(err, ErrDisconnect) {
		t.Fatalf("err = %v, want ErrDisconnect", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("ErrDisconnect must wrap ErrInjected")
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d bytes before disconnect, want 20", len(got))
	}
}

func TestDisconnectReaderAtExactEOF(t *testing.T) {
	// Payload length equals the cut point: the disconnect must still
	// surface instead of a clean EOF.
	dr := &DisconnectReader{R: strings.NewReader("12345"), N: 5}
	_, err := io.ReadAll(dr)
	if !errors.Is(err, ErrDisconnect) {
		t.Fatalf("err = %v, want ErrDisconnect at the cut point", err)
	}
}

func TestWindowsDeterministicAndNonOverlapping(t *testing.T) {
	a := Windows(11, 3, 300, 5, 40)
	b := Windows(11, 3, 300, 5, 40)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("want 3 windows, got %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Len < 1 || a[i].Len > 40 {
			t.Fatalf("window %d length %d out of [1, 40]", i, a[i].Len)
		}
		if a[i].Start < i*100 || a[i].Start+a[i].Len > (i+1)*100 {
			t.Fatalf("window %d %+v escapes its slice [%d, %d)", i, a[i], i*100, (i+1)*100)
		}
	}
	// A different seed moves the windows.
	c := Windows(12, 3, 300, 5, 40)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	// ActiveAt covers exactly the scheduled ticks.
	covered := 0
	for tick := 0; tick < 300; tick++ {
		if ActiveAt(a, tick) {
			covered++
		}
	}
	want := 0
	for _, w := range a {
		want += w.Len
	}
	if covered != want {
		t.Fatalf("ActiveAt covered %d ticks, schedule says %d", covered, want)
	}
}

func TestWindowsDegenerateInputs(t *testing.T) {
	if got := Windows(1, 0, 100, 1, 5); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	if got := Windows(1, 2, 0, 1, 5); got != nil {
		t.Fatalf("horizon=0 returned %v", got)
	}
	// minLen > maxLen and tiny horizons still produce in-bounds windows.
	for _, w := range Windows(3, 4, 4, 3, 1) {
		if w.Len < 1 || w.Start < 0 || w.Start+w.Len > 4 {
			t.Fatalf("degenerate window %+v out of bounds", w)
		}
	}
}
