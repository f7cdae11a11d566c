package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/etcmat"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/wire"
)

// wireBenchShape is the decode micro-benchmark shape: the serving loadtest's
// standard 150x80 environment (~250 KB as JSON, ~94 KB as a binary frame).
const (
	wireBenchTasks    = 150
	wireBenchMachines = 80
)

// decodeBenchReport is the decode_bench section runWireBench merges into the
// serving report: one record per ingestion path and GOMAXPROCS setting, same
// body content.
type decodeBenchReport struct {
	Shape     string        `json:"shape"`
	JSONBytes int           `json:"json_bytes"`
	WireBytes int           `json:"wire_bytes"`
	GoVersion string        `json:"go_version"`
	Results   []benchResult `json:"results"`
}

// runWireBench measures the three ways a characterize body becomes a cache
// key — the old stdlib path (encoding/json into the DTO, full Env
// materialization), the streaming scanner, and the binary frame — and merges
// the results into the serving report at path (creating it if absent), so
// the decode numbers live next to the end-to-end latencies they explain.
func runWireBench(path string) error {
	rng := rand.New(rand.NewSource(1))
	env, err := gen.RangeBased(wireBenchTasks, wireBenchMachines, 100, 10, rng)
	if err != nil {
		return err
	}
	jsonBody, err := json.Marshal(server.EnvToDTO(env))
	if err != nil {
		return err
	}
	wireBody, err := wire.AppendMatrix(nil, env.ETC())
	if err != nil {
		return err
	}
	wantKey := env.ContentKey()

	rep := decodeBenchReport{
		Shape:     fmt.Sprintf("%dx%d", wireBenchTasks, wireBenchMachines),
		JSONBytes: len(jsonBody),
		WireBytes: len(wireBody),
		GoVersion: runtime.Version(),
	}
	decoders := []struct {
		name string
		key  func() (etcmat.ContentKey, error)
	}{
		{"DecodeToKey/json-stdlib", func() (etcmat.ContentKey, error) {
			var dto server.EnvDTO
			if err := json.Unmarshal(jsonBody, &dto); err != nil {
				return etcmat.ContentKey{}, err
			}
			e, err := dto.Env()
			if err != nil {
				return etcmat.ContentKey{}, err
			}
			return e.ContentKey(), nil
		}},
		{"DecodeToKey/json-streaming", func() (etcmat.ContentKey, error) {
			return server.DecodeEnvContentKey(jsonBody, "application/json")
		}},
		{"DecodeToKey/binary", func() (etcmat.ContentKey, error) {
			return server.DecodeEnvContentKey(wireBody, wire.ContentTypeMatrix)
		}},
	}
	// Every path runs at GOMAXPROCS=1 and, on a host with two or more CPUs,
	// at 2. A decode is one goroutine, so the second core can only change
	// what the runtime (the garbage collector) does around it.
	procs := []int{1}
	if runtime.NumCPU() >= 2 {
		procs = append(procs, 2)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		for _, d := range decoders {
			rep.Results = append(rep.Results, record(d.name,
				testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						k, err := d.key()
						if err != nil {
							b.Fatal(err)
						}
						if k != wantKey {
							b.Fatalf("%s produced a different key", d.name)
						}
					}
				})))
		}
	}

	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	// Merge: keep every other field of an existing serving report intact.
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	section, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	doc["decode_bench"] = section
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
