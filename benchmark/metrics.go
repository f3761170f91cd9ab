package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric: the name every later issue refers to
// and the unit it is reported in. The same names, units and directions
// are declared in ../BENCHMARK.json; spec_test.go keeps the two equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the numbers a user of the trainer sees, reported for
// every workload by the timed pass (tracing off).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "samples/s"},
	{"time_to_target_s", "s"},
	{"cpu_s_per_ksample", "CPU-s/ksample"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the single-layer numbers, named <layer>.<metric> after the
// package on the training path that owns the cost. They come from the
// layer probes (A), the traced pass (B) and the timed pass (T); README.md
// says which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"tensor.matmul_gflops", "GFLOP/s"},    // A
	{"tensor.matmul_t1_gflops", "GFLOP/s"}, // A
	{"tensor.matmul_t2_gflops", "GFLOP/s"}, // A
	{"tensor.matmul_small_ns", "ns"},       // A
	{"tensor.softmax_rows_ns", "ns"},       // A

	{"nn.fwd_ms_per_micro", "ms"},  // A
	{"nn.bwd_ms_per_micro", "ms"},  // A
	{"nn.flops_per_epoch", "flop"}, // A
	{"nn.cost_share_err", "ratio"}, // A

	{"model.eval_ms", "ms"},               // A
	{"data.batches_us_per_epoch", "us"},   // A
	{"optim.step_ms", "ms"},               // A
	{"pipeline.version_push_us", "us"},    // A
	{"pipeline.version_get_us", "us"},     // A
	{"pipeline.stage_imbalance", "ratio"}, // A

	{"core.commit_s_per_epoch", "s"},  // B
	{"core.control_s_per_epoch", "s"}, // B
	{"core.ckpt_write_ms", "ms"},      // A
	{"core.ckpt_mb", "MB"},            // A
	{"core.ckpt_mb_per_s", "MB/s"},    // A
	{"core.ckpt_restore_ms", "ms"},    // A
	{"core.ckpt_stall_frac", "ratio"}, // T

	{"engine.bubble_frac", "ratio"},              // B
	{"engine.schedule_eff", "ratio"},             // B
	{"engine.stage_busy_max_over_mean", "ratio"}, // B
	{"engine.compute_s_per_epoch", "s"},          // B
	{"engine.slot_overhead_us", "us"},            // B
	{"engine.unattributed_frac", "ratio"},        // B
	{"engine.serial_epoch_s", "s"},               // T
	{"engine.speedup_vs_serial", "ratio"},        // T

	{"replica.collective_s_per_epoch", "s"},   // B
	{"replica.bytes_per_step", "bytes"},       // B
	{"replica.collectives_per_step", "count"}, // B
	{"replica.scaling_eff", "ratio"},          // T

	{"transport.encode_mb_per_s", "MB/s"}, // A
	{"transport.decode_mb_per_s", "MB/s"}, // A
	{"transport.frame_mb_per_s", "MB/s"},  // A
	{"transport.rtt_us", "us"},            // A
	{"transport.stream_mb_per_s", "MB/s"}, // A
	{"transport.wire_s_per_epoch", "s"},   // B
	{"transport.retries", "count"},        // B

	{"trace.overhead_frac", "ratio"},  // B
	{"trace.dropped_events", "count"}, // B

	{"proc.epoch_s_p50", "s"},             // T
	{"proc.epoch_s_tail", "s"},            // T
	{"proc.epoch_tail_pct", "pct"},        // T
	{"proc.epoch_samples", "count"},       // T
	{"proc.peak_rss_mb", "MiB"},           // T
	{"proc.alloc_mb_per_epoch", "MiB"},    // T
	{"proc.gc_cycles_per_epoch", "count"}, // T
	{"proc.machine_speed", "ratio"},       // T
}

// metric is one reported value with its unit, the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run by name.
type metricSet map[string]float64

// report resolves the collected values against their declaration table,
// in table order. Every declared metric must have been measured and every
// measured name declared, so a probe that silently stops running fails
// the run instead of thinning the output.
func (m metricSet) report(table []metricDef) (names []string, out map[string]metric, err error) {
	out = make(map[string]metric, len(table))
	for _, d := range table {
		v, ok := m[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		names = append(names, d.name)
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(out) != len(m) {
		var extra []string
		for name := range m {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("measured but not declared: %v", extra)
	}
	return names, out, nil
}
