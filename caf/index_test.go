package caf

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runOrHang is Run under a deadline: an entry point that lets a bad argument
// through shows up as a team waiting forever (native) or as the simulator's
// deadlock panic escaping Run (sim), and either fails the test here.
func runOrHang(t *testing.T, cfg Config, body func(*Image)) error {
	t.Helper()
	type result struct {
		err      error
		panicked interface{}
	}
	done := make(chan result, 1) // the runner never blocks, whoever listens
	go func() {
		var r result
		defer func() {
			r.panicked = recover()
			done <- r
		}()
		_, r.err = Run(cfg, body)
	}()
	select {
	case r := <-done:
		if r.panicked != nil {
			t.Fatalf("a panic escaped Run: %v", r.panicked)
		}
		return r.err
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("Run still going after 30 s\n%s", buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestImageIndexOutOfRange: every entry point that takes a 1-based image index
// refuses 0 and n+1 by name before it communicates, on every image alike, so
// Run returns the failure instead of hanging (a scatter nobody roots) or dying
// on a bare index-out-of-range inside the runtime.
func TestImageIndexOutOfRange(t *testing.T) {
	const n = 8
	for _, c := range []struct {
		name, op string
		call     func(im *Image, image int)
	}{
		{"CoBroadcast", "co_broadcast", func(im *Image, i int) { im.CoBroadcast(make([]float64, 2), i) }},
		{"CoBroadcastAsync", "co_broadcast", func(im *Image, i int) { im.Async(func() { im.CoBroadcast(make([]float64, 2), i) }).Wait() }},
		{"CoSumTo", "co_sum(result_image)", func(im *Image, i int) { im.CoSumTo(make([]float64, 2), i) }},
		{"CoScatter", "co_scatter", func(im *Image, i int) { im.CoScatter(make([]float64, 2*n), make([]float64, 2), i) }},
		{"CoGather", "co_gather", func(im *Image, i int) { im.CoGather(make([]float64, 2), make([]float64, 2*n), i) }},
		{"SyncImages", "sync images", func(im *Image, i int) { im.SyncImages([]int{i}) }},
		{"Coarray.Put", "coarray put", func(im *Image, i int) { im.NewCoarray("x", 2).Put(im, i, 0, []float64{1}) }},
		{"Coarray.Get", "coarray get", func(im *Image, i int) { im.NewCoarray("x", 2).Get(im, i, 0, make([]float64, 1)) }},
	} {
		for _, image := range []int{0, n + 1} {
			for _, backend := range []string{BackendSim, BackendNative} {
				t.Run(fmt.Sprintf("%s/%d/%s", c.name, image, backend), func(t *testing.T) {
					err := runOrHang(t, Config{Spec: "8(2)", Backend: backend}, func(im *Image) { c.call(im, image) })
					var fre *FailedRunError
					if !errors.As(err, &fre) {
						t.Fatalf("Run error = %v, want *FailedRunError", err)
					}
					if len(fre.Failures) != n {
						t.Errorf("%d images failed, want all %d the same way", len(fre.Failures), n)
					}
					want := fmt.Sprintf("caf: %s: ", c.op)
					rng := fmt.Sprintf("image %d outside 1..%d", image, n)
					if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, rng) {
						t.Errorf("error %q does not name %q and %q", msg, want, rng)
					}
				})
			}
		}
	}
}

// TestSyncImagesRepeatedIndex: an image set may not list an image twice
// (F2018 11.6.4). Image 1 lists image 2 twice while image 2 lists image 1
// once; image 1 refuses by name before it notifies anyone, and image 2
// observes image 1's failure instead of waiting for a second notify forever.
func TestSyncImagesRepeatedIndex(t *testing.T) {
	for _, backend := range []string{BackendSim, BackendNative} {
		t.Run(backend, func(t *testing.T) {
			err := runOrHang(t, Config{Spec: "4(2)", Backend: backend}, func(im *Image) {
				switch im.ThisImage() {
				case 1:
					im.SyncImages([]int{2, 2})
				case 2:
					im.SyncImages([]int{1})
				}
			})
			var fre *FailedRunError
			if !errors.As(err, &fre) {
				t.Fatalf("Run error = %v, want *FailedRunError", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "caf: sync images: partner image 2 listed twice") {
				t.Errorf("error %q does not name the repeated image", msg)
			}
		})
	}
}
