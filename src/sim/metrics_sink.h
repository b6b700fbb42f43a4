// Per-LP metric sinks for simulations with several LPs (docs/PERF.md).
//
// When the kernel runs an LP's events in a round, a thread-local active
// sink buffers every metric mutation (counter increments, histogram
// records, time-series adds, gauge writes) instead of applying it to the
// shared metric object. Sinks are flushed by the coordinator at each round
// barrier in LP-id order, so (a) concurrently executing LPs never touch a
// shared metric — no data races, no contended cache lines on the hot path —
// and (b) the order in which mutations reach each metric is a pure function
// of the LP layout, never of thread scheduling, which keeps even
// floating-point accumulations (histogram sums, time-series buckets)
// bit-identical across thread counts.
//
// A one-LP simulation has no sinks, and outside event execution (setup and
// report code) no sink is active: every mutation applies directly, exactly
// as before.

#ifndef BLADERUNNER_SRC_SIM_METRICS_SINK_H_
#define BLADERUNNER_SRC_SIM_METRICS_SINK_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace bladerunner {

class Counter;
class Gauge;
class Histogram;
class TimeSeries;

class MetricsSink {
 public:
  void AddCounter(Counter* counter, int64_t by) { counters_.push_back({counter, by}); }
  void AddGauge(Gauge* gauge, bool is_set, double value) {
    gauges_.push_back({gauge, is_set, value});
  }
  void AddHistogram(Histogram* histogram, double value, uint64_t n) {
    histograms_.push_back({histogram, value, n});
  }
  void AddTimeSeries(TimeSeries* series, SimTime at, double value, bool is_sample) {
    series_.push_back({series, at, value, is_sample});
  }

  // Applies all buffered mutations in record order and clears the sink.
  // Must only be called while no LP is executing (the round barrier).
  void Flush();

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && series_.empty();
  }

 private:
  struct CounterOp {
    Counter* counter;
    int64_t by;
  };
  struct GaugeOp {
    Gauge* gauge;
    bool is_set;  // false: Add
    double value;
  };
  struct HistogramOp {
    Histogram* histogram;
    double value;
    uint64_t n;
  };
  struct SeriesOp {
    TimeSeries* series;
    SimTime at;
    double value;
    bool is_sample;  // false: Add
  };

  std::vector<CounterOp> counters_;
  std::vector<GaugeOp> gauges_;
  std::vector<HistogramOp> histograms_;
  std::vector<SeriesOp> series_;
};

// Installs `sink` as this thread's active sink and returns the previous
// one (null when mutations were applying directly).
MetricsSink* SetActiveMetricsSink(MetricsSink* sink);
MetricsSink* ActiveMetricsSink();

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_SIM_METRICS_SINK_H_
