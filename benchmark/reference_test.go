package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"
)

// The workloads start the reference kernel as a child process of the
// running program, which under go test is the test binary.
func TestMain(m *testing.M) {
	serveReferenceIfAsked()
	os.Exit(m.Run())
}

// Times scale with the host's speed and rates against it; counts, sizes
// and shares are left as measured.
func TestAtNominal(t *testing.T) {
	for _, tc := range []struct {
		v    value
		want float64
	}{
		{value{Value: 10, Unit: "ms"}, 5},
		{value{Value: 0.4, Unit: "s"}, 0.2},
		{value{Value: 30, Unit: "1/s"}, 60},
		{value{Value: 7, Unit: "MiB"}, 7},
		{value{Value: 0.1, Unit: "share"}, 0.1},
	} {
		if got := atNominal(tc.v, 0.5).Value; math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%v %s at scale 0.5 = %v, want %v", tc.v.Value, tc.v.Unit, got, tc.want)
		}
	}
}

// The server answers every request byte with one kernel time and stops at
// the end of its input.
func TestServeReference(t *testing.T) {
	var out bytes.Buffer
	if err := serveReference(2, bytes.NewReader([]byte{1, 1, 1}), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3*8 {
		t.Fatalf("%d bytes of answers, want 3 of 8", out.Len())
	}
	for i := 0; i < 3; i++ {
		if ns := binary.LittleEndian.Uint64(out.Bytes()[8*i:]); ns == 0 {
			t.Errorf("sample %d took 0 ns", i)
		}
	}
}

// The parent's side takes samples from a child process, and closing it
// waits for the child to exit cleanly.
func TestReferenceChild(t *testing.T) {
	r, err := startReference(2)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := r.sample(); err != nil {
			r.close()
			t.Fatal(err)
		}
	}
	if err := r.close(); err != nil {
		t.Fatalf("child exit: %v", err)
	}
	if err := r.close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if len(r.SamplesMs) != 2 || r.Paused <= 0 || r.scale() <= 0 {
		t.Errorf("after two samples: %d samples, paused %v, scale %v", len(r.SamplesMs), r.Paused, r.scale())
	}
}
