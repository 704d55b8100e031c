package bench

import (
	"testing"

	"surge"
)

// BenchmarkKCCSMaintain profiles the continuous top-k maintenance path the
// server runs per ingested batch (internal; used with -cpuprofile).
func BenchmarkKCCSMaintain(b *testing.B) {
	o := DefaultOptions(nil)
	d := o.dataset("Taxi")
	w := defaultWindow("Taxi")
	gen := genFor(d, w, 100000)
	objs := make([]surge.Object, len(gen))
	for i, ob := range gen {
		objs[i] = surge.Object{X: ob.X, Y: ob.Y, Weight: ob.Weight, Time: ob.T}
	}
	det, err := surge.New(surge.CellCSPOT, surge.Options{
		Width: d.QueryWidth(), Height: d.QueryHeight(), Window: w, Alpha: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer det.Close()
	td, err := det.AttachTopK(surge.CellCSPOT, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for n < b.N {
		for lo := 0; lo < len(objs) && n < b.N; lo += 512 {
			hi := min(lo+512, len(objs))
			if _, err := det.PushBatch(objs[lo:hi]); err != nil {
				b.Fatal(err)
			}
			td.BestK()
			n += hi - lo
		}
		b.StopTimer()
		det.Close()
		det, _ = surge.New(surge.CellCSPOT, surge.Options{
			Width: d.QueryWidth(), Height: d.QueryHeight(), Window: w, Alpha: 0.5,
		})
		td, _ = det.AttachTopK(surge.CellCSPOT, 5)
		b.StartTimer()
	}
}
