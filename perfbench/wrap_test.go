package main

import (
	"strings"
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// capabilities lists the optional interfaces the engines probe for.
func strategyCaps(s core.ClusterStrategy) [3]bool {
	_, tuner := s.(core.PolicyTuner)
	_, observer := s.(core.AccessObserver)
	_, stateful := s.(core.StatefulClusterStrategy)
	return [3]bool{tuner, observer, stateful}
}

func backendCaps(b storage.Backend) [3]bool {
	_, durable := b.(storage.Durable)
	_, pageIO := b.(storage.PageIO)
	_, txnLog := b.(storage.TxnLog)
	return [3]bool{durable, pageIO, txnLog}
}

func TestWrapperCapabilityParity(t *testing.T) {
	g := model.NewGraph()
	m := storage.NewManager(g, 4096)
	pool := buffer.NewPool(8, buffer.NewLRU())
	seam := core.ClusterSeam{Graph: g, Store: m, Pool: pool, PageSize: 4096}
	for _, name := range core.ClusterStrategyNames() {
		if strings.HasPrefix(name, "perfbench") {
			continue // the traced registration itself
		}
		inner, err := core.NewClusterStrategy(name, seam)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapStrategy(inner, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := strategyCaps(w), strategyCaps(inner); got != want {
			t.Errorf("strategy %s: wrapper capabilities (tuner, observer, stateful) = %v, inner %v", name, got, want)
		}
	}
	affinity, err := core.NewClusterStrategy("affinity", seam)
	if err != nil {
		t.Fatal(err)
	}
	if caps := strategyCaps(affinity); !caps[0] || caps[1] {
		t.Errorf("affinity capabilities (tuner, observer, stateful) = %v; the engine must see a tuner and no observer", caps)
	}

	for _, name := range []string{"memory", "file"} {
		opt := storage.BackendOptions{}
		if name == "file" {
			opt.Dir = t.TempDir()
		}
		inner, err := storage.NewBackendByName(name, storage.NewManager(model.NewGraph(), 4096), opt)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapBackend(inner, newTracer())
		if got, want := backendCaps(w), backendCaps(inner); got != want {
			t.Errorf("backend %s: wrapper capabilities (durable, pageIO, txnLog) = %v, inner %v", name, got, want)
		}
		if d, ok := inner.(storage.Durable); ok {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
