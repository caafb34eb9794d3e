package main

import "encoding/json"

// benchmarkSpec is BENCHMARK.json at the root of the repository: how to
// run the benchmark, and the names, units, directions and bounds of what
// it reports. It is generated from the definitions in this package
// (-spec) and the smoke test keeps the two equal.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func specJSON() ([]byte, error) {
	spec := benchmarkSpec{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		spec.Workloads = append(spec.Workloads, specWorkload{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		bound := d.bound
		spec.EndToEnd = append(spec.EndToEnd, specMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayerDefs {
		spec.PerLayer = append(spec.PerLayer, specMetric{d.name, d.unit, d.better, nil})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	return append(b, '\n'), err
}
