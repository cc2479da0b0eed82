package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"hstreams/internal/core.(*Runtime).finish": "hstreams/internal/core",
		"net/http.(*conn).serve":                   "net/http",
		"runtime.mallocgc":                         "runtime",
		"main.kernelFill":                          "main",
		"hstreams/internal/trace.New.func1":        "hstreams/internal/trace",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStackLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.memmove", "runtime.mallocgc", "runtime.newobject", "hstreams/internal/core.(*Runtime).enqueue"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"sync.(*Mutex).Lock", "hstreams/internal/core.(*Stream).depScan"}, "core"},
		{[]string{"hstreams/internal/core.(*simExec).launch", "hstreams/internal/core.(*Runtime).enqueue"}, "timesim"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).finishRequest"}, "http"},
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "hstreams/internal/serve.(*Server).handleSubmit"}, "serve"},
		{[]string{benchPkg + ".kernelFill", "hstreams/internal/core.(*realExec).computeHost"}, "kernels"},
		{[]string{"hstreams/internal/blas.DgemmParallel", "hstreams/internal/matmul.RegisterExtra.func1"}, "blas"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"strconv.AppendInt", benchPkg + ".runClient"}, "other"},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var spinSink uint64

// kernelProfileSpin burns CPU under a name the layer split charges to
// kernels.
func kernelProfileSpin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestLayerNanosDecodesARealProfile profiles a busy loop and checks
// the decoder finds the loop's time under its layer.
func TestLayerNanosDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	kernelProfileSpin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := layerNanos(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for l, v := range got {
		total += v
		found := false
		for _, known := range layers {
			found = found || l == known
		}
		if !found {
			t.Errorf("unknown layer %q", l)
		}
	}
	if total <= 0 || got["kernels"] < total/2 {
		t.Errorf("kernels got %v of %v ns; want most of the profile", got["kernels"], total)
	}
}

func TestLayerNanosRejectsGarbage(t *testing.T) {
	if _, err := layerNanos([]byte("not a profile")); err == nil {
		t.Error("layerNanos accepted a non-gzip input")
	}
}
