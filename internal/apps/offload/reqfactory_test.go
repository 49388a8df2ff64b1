package offload_test

import (
	"bytes"
	"testing"

	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/apps/redis"
	"kflex/internal/workload"
)

// TestReqFactoryIsLazy: no system the simulation drives builds its request
// stream until the first draw, and the stream it then draws is the one an
// eagerly built generator yields, frame for frame. (The supervised
// deployment holds no stream: it is driven through Execute.)
func TestReqFactoryIsLazy(t *testing.T) {
	cfg := testConfig()
	constructors := map[string]func() (any, error){
		"KFlex":     func() (any, error) { return offload.NewKFlex(&redis.Codec, cfg, 1, false) },
		"UserSpace": func() (any, error) { return memcached.NewUserSpace(cfg), nil },
		"BMC":       func() (any, error) { return memcached.NewBMC(cfg, 1) },
		"KeyDB":     func() (any, error) { return redis.NewKeyDB(cfg), nil },
	}
	for name, build := range constructors {
		sys, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if offload.StreamBuilt(sys) {
			t.Errorf("%s built its request stream at construction", name)
		}
		if c, ok := sys.(interface{ Close() }); ok {
			c.Close()
		}
	}

	for _, c := range codecs {
		for _, mix := range workload.Mixes {
			for _, seed := range []int64{1, 42} {
				cfg := offload.Config{Mix: mix, Seed: seed, ValueSize: kvprog.ValueSize}
				fac, gen := c.NewReqFactory(cfg), workload.NewGenerator(seed, mix)
				for i := 0; i < 10_000; i++ {
					want := gen.Next()
					wantFrame := c.AppendGet(nil, workload.FormatKey(want.Key, kvprog.KeySize))
					if want.Op == workload.OpSet {
						wantFrame = c.AppendSet(nil, workload.FormatKey(want.Key, kvprog.KeySize),
							workload.FormatValue(want.Value, cfg.ValueSize))
					}
					if req, frame := fac.Next(); req != want || !bytes.Equal(frame, wantFrame) {
						t.Fatalf("%s %v seed %d, frame %d: %+v %q, want %+v %q", c.Name, mix, seed, i, req, frame, want, wantFrame)
					}
				}
			}
		}
	}
}
