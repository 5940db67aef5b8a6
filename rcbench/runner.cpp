// rcbench-run: one benchmark workload run in its own process.
//
// Builds the workload through the public API only (make_system_config +
// SystemConfig fields, or SyntheticTraffic), times every phase from outside
// around the public calls, and prints one JSON object on stdout:
//
//   construct -> prewarm -> warm-up -> reset_stats -> measure -> report
//
// Timestamps are CLOCK_MONOTONIC nanoseconds (std::chrono::steady_clock), so
// the parent driver (rcbench/run.py) lines them up with its own clock and
// measures wall time from the moment it spawned this process.
//
// Usage:
//   rcbench-run --kind system|synthetic --side N --seed S --shards K
//               --warmup W --measure M [--rate R --service C]
//               [--partition-side P] [--windows K] [--setup-reps R]
//
// Every workload runs the fft app model on the SlackDelay1_NoAck preset.
//
// --windows K > 0 is the traced mode: the measure window is stepped in K
// run_cycles calls (one span each) and a standalone Network is timed. The
// result digest must not depend on K, nor on --shards, nor on RC_CHECK.
// Exit codes: 0 = ok, 2 = bad arguments, 3 = the run failed (the JSON then
// carries "ok": false and the reason).
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"
#include "sim/system.hpp"

namespace {

using Clock = std::chrono::steady_clock;

const char* const kApp = "fft";
const char* const kPreset = "SlackDelay1_NoAck";

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string kind;
  int side = 0;
  std::uint64_t seed = 0;
  int shards = 1;
  rc::Cycle warmup = 0;
  rc::Cycle measure = 0;
  double rate = 0;
  int service = 0;
  int partition_side = 0;
  int windows = 0;
  int setup_reps = 1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rcbench-run: %s\n"
               "usage: rcbench-run --kind system|synthetic --side N --seed S "
               "--shards K --warmup W --measure M [--rate R --service C] "
               "[--partition-side P] [--windows K] [--setup-reps R]\n",
               why.c_str());
  std::exit(2);
}

long long parse_int(const char* flag, const char* v, long long lo,
                    long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || x < lo || x > hi)
    usage(std::string("bad value for ") + flag + ": '" + v + "'");
  return x;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage("missing value for " + f);
    const char* v = argv[i + 1];
    if (f == "--kind") o.kind = v;
    else if (f == "--side") o.side = static_cast<int>(parse_int(f.c_str(), v, 1, 64));
    else if (f == "--seed")
      o.seed = static_cast<std::uint64_t>(parse_int(f.c_str(), v, 0, (1LL << 62)));
    else if (f == "--shards") o.shards = static_cast<int>(parse_int(f.c_str(), v, 1, 64));
    else if (f == "--warmup") o.warmup = static_cast<rc::Cycle>(parse_int(f.c_str(), v, 0, 1LL << 40));
    else if (f == "--measure") o.measure = static_cast<rc::Cycle>(parse_int(f.c_str(), v, 1, 1LL << 40));
    else if (f == "--rate") {
      char* end = nullptr;
      o.rate = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.rate > 0 && o.rate <= 1))
        usage(std::string("bad value for --rate: '") + v + "'");
    } else if (f == "--service") o.service = static_cast<int>(parse_int(f.c_str(), v, 0, 100000));
    else if (f == "--partition-side") o.partition_side = static_cast<int>(parse_int(f.c_str(), v, 0, 64));
    else if (f == "--windows") o.windows = static_cast<int>(parse_int(f.c_str(), v, 0, 100000));
    else if (f == "--setup-reps") o.setup_reps = static_cast<int>(parse_int(f.c_str(), v, 1, 100));
    else usage("unknown flag " + f);
  }
  if (o.kind != "system" && o.kind != "synthetic") usage("--kind must be system or synthetic");
  if (o.side == 0) usage("--side is required");
  if (o.measure == 0) usage("--measure is required");
  if (o.kind == "synthetic" && o.rate <= 0) usage("synthetic runs need --rate");
  if (o.windows > 0 && static_cast<rc::Cycle>(o.windows) > o.measure)
    usage("--windows must not exceed --measure");
  return o;
}

// ---- result digest ---------------------------------------------------------

/// FNV-1a over a canonical text form of the statistics. Accumulators enter
/// as count/sum/min/max in hex-float form: exact, and — unlike the shifted
/// second moment — invariant under how a run is split into merged windows.
class Digest {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  void add_stats(const char* tag, const rc::StatSet& s) {
    char buf[256];
    for (const auto& [k, v] : s.counters()) {
      std::snprintf(buf, sizeof buf, "%s.c.%s=%" PRIu64 "\n", tag, k.c_str(), v);
      add(buf);
    }
    for (const auto& [k, a] : s.accumulators()) {
      std::snprintf(buf, sizeof buf, "%s.a.%s=%" PRIu64 ",%a,%a,%a\n", tag,
                    k.c_str(), a.count(), a.sum(), a.min(), a.max());
      add(buf);
    }
    for (const auto& [k, hist] : s.histograms()) {
      add(std::string(tag) + ".h." + k + "=");
      for (int i = 0; i < rc::Histogram::kBuckets; ++i) {
        std::snprintf(buf, sizeof buf, "%" PRIu64 ",", hist.buckets()[i]);
        add(buf);
      }
      add("\n");
    }
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ---- output ----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Span {
  std::string name;
  std::int64_t start = 0, end = 0;
  int parent = -1;  ///< index into the span list, -1 = root
};

/// Spans of this process, kept in memory and printed with the result.
class Spans {
 public:
  int open(const std::string& name, int parent) {
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `i` and returns its duration in seconds.
  double close(int i) {
    spans_[i].end = now_ns();
    return (spans_[i].end - spans_[i].start) * 1e-9;
  }
  std::string json() const {
    std::string o = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) o += ',';
      o += "{\"name\":" + json_str(s.name) +
           ",\"start\":" + std::to_string(s.start) +
           ",\"end\":" + std::to_string(s.end) +
           ",\"parent\":" + std::to_string(s.parent) + "}";
    }
    return o + "]";
  }

 private:
  std::vector<Span> spans_;
};

std::string stats_json(const rc::StatSet& s) {
  std::string o = "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : s.counters()) {
    if (!first) o += ',';
    o += json_str(k) + ":" + std::to_string(v);
    first = false;
  }
  o += "},\"acc\":{";
  first = true;
  for (const auto& [k, a] : s.accumulators()) {
    if (!first) o += ',';
    o += json_str(k) + ":[" + std::to_string(a.count()) + "," +
         json_num(a.sum()) + "]";
    first = false;
  }
  return o + "}}";
}

/// Everything one run measured; serialized as the process's stdout line.
struct Result {
  std::int64_t t_main = 0, t_extracted = 0;
  std::vector<std::pair<std::string, double>> phases;
  std::vector<double> setup_reps_s;
  std::vector<double> windows_s;
  rc::StatSet net, sys;
  std::uint64_t retired = 0, requests = 0;
  double ipc = 0;
  int shards = 0;
  std::string tick_mode;
  bool checked = false;
  std::string digest;

  void phase(const std::string& name, double s) { phases.emplace_back(name, s); }

  std::string json(const Spans& spans) const {
    std::string o = "{\"ok\":true,\"t_main\":" + std::to_string(t_main) +
                    ",\"t_extracted\":" + std::to_string(t_extracted) +
                    ",\"shards\":" + std::to_string(shards) +
                    ",\"tick_mode\":" + json_str(tick_mode) +
                    ",\"checked\":" + (checked ? "true" : "false") +
                    ",\"digest\":" + json_str(digest) +
                    ",\"retired\":" + std::to_string(retired) +
                    ",\"requests\":" + std::to_string(requests) +
                    ",\"ipc\":" + json_num(ipc) + ",\"phases\":{";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (i) o += ',';
      o += json_str(phases[i].first) + ":" + json_num(phases[i].second);
    }
    auto list = [](const std::vector<double>& v) {
      std::string l = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) l += ',';
        l += json_num(v[i]);
      }
      return l + "]";
    };
    o += "},\"setup_reps_s\":" + list(setup_reps_s) +
         ",\"windows_s\":" + list(windows_s) + ",\"net\":" + stats_json(net) +
         ",\"sys\":" + stats_json(sys) + ",\"spans\":" + spans.json() + "}";
    return o;
  }
};

/// Measure-window lengths: `windows` near-equal pieces (1 when untraced).
std::vector<rc::Cycle> split_measure(rc::Cycle measure, int windows) {
  const rc::Cycle k = windows > 0 ? static_cast<rc::Cycle>(windows) : 1;
  std::vector<rc::Cycle> w(k, measure / k);
  for (rc::Cycle i = 0; i < measure % k; ++i) ++w[i];
  return w;
}

rc::SystemConfig system_config(const Options& o) {
  rc::SystemConfig cfg =
      rc::make_system_config(o.side * o.side, kPreset, kApp, o.seed);
  cfg.shards = o.shards;
  cfg.partition_side = o.partition_side;
  cfg.warmup_cycles = o.warmup;
  cfg.measure_cycles = o.measure;
  return cfg;
}

rc::NocConfig synthetic_noc(const Options& o) {
  return rc::make_system_config(o.side * o.side, kPreset, "none", o.seed).noc;
}

void time_standalone_network(const rc::NocConfig& noc, Spans& spans, int root,
                             Result& r) {
  const int sp = spans.open("noc.construct", root);
  { rc::Network net(noc); }
  r.phase("noc_construct", spans.close(sp));
}

void run_system(const Options& o, Spans& spans, int root, Result& r) {
  const rc::SystemConfig cfg = system_config(o);
  if (o.windows > 0) time_standalone_network(cfg.noc, spans, root, r);

  int sp = spans.open("sim.construct", root);
  auto sys = std::make_unique<rc::System>(cfg);
  const double construct = spans.close(sp);
  r.phase("construct", construct);
  sp = spans.open("coherence.prewarm", root);
  sys->prewarm();
  const double prewarm = spans.close(sp);
  r.phase("prewarm", prewarm);
  r.setup_reps_s.push_back(construct + prewarm);

  sp = spans.open("sim.warmup", root);
  sys->run_cycles(cfg.warmup_cycles);
  r.phase("warmup", spans.close(sp));
  sp = spans.open("sim.reset_stats", root);
  sys->reset_stats();
  r.phase("reset_stats", spans.close(sp));

  sp = spans.open("sim.measure", root);
  for (rc::Cycle w : split_measure(cfg.measure_cycles, o.windows)) {
    const int ws = o.windows > 0 ? spans.open("sim.window", sp) : -1;
    sys->run_cycles(w);
    if (ws >= 0) r.windows_s.push_back(spans.close(ws));
  }
  r.phase("measure", spans.close(sp));

  sp = spans.open("sim.report", root);
  rc::RunResult res = rc::extract_result(*sys, kApp);
  Digest d;
  d.add_stats("net", res.net);
  d.add_stats("sys", res.sys);
  char buf[96];
  std::snprintf(buf, sizeof buf, "retired=%" PRIu64 " ipc=%a\n", res.retired,
                res.ipc);
  d.add(buf);
  r.digest = d.hex();
  r.phase("report", spans.close(sp));
  r.t_extracted = now_ns();

  r.retired = res.retired;
  r.ipc = res.ipc;
  r.net = std::move(res.net);
  r.sys = std::move(res.sys);
  r.shards = sys->shards();
  r.tick_mode = rc::to_string(sys->tick_mode());
  r.checked = sys->validator() != nullptr;
  sys.reset();

  for (int i = 1; i < o.setup_reps; ++i) {
    sp = spans.open("sim.setup_rep", root);
    rc::System again(cfg);
    again.prewarm();
    r.setup_reps_s.push_back(spans.close(sp));
  }
}

void run_synthetic(const Options& o, Spans& spans, int root, Result& r) {
  const rc::NocConfig noc = synthetic_noc(o);
  if (o.windows > 0) time_standalone_network(noc, spans, root, r);

  int sp = spans.open("sim.construct", root);
  auto traffic = std::make_unique<rc::SyntheticTraffic>(noc, o.rate, o.service,
                                                        o.seed, o.shards);
  const double construct = spans.close(sp);
  r.phase("construct", construct);
  r.setup_reps_s.push_back(construct);

  // run(w, 0) is the warm-up alone; each run(0, m) resets the fabric's
  // statistics and measures m more cycles of the same simulation.
  sp = spans.open("sim.warmup", root);
  traffic->run(o.warmup, 0);
  r.phase("warmup", spans.close(sp));

  sp = spans.open("sim.measure", root);
  rc::StatSet net;
  std::uint64_t requests = 0;
  for (rc::Cycle w : split_measure(o.measure, o.windows)) {
    const int ws = o.windows > 0 ? spans.open("sim.window", sp) : -1;
    rc::SyntheticResult res = traffic->run(0, w);
    if (ws >= 0) r.windows_s.push_back(spans.close(ws));
    net.merge(res.net);
    requests += res.requests_done;
  }
  r.phase("measure", spans.close(sp));

  sp = spans.open("sim.report", root);
  Digest d;
  d.add_stats("net", net);
  d.add("requests=" + std::to_string(requests) + "\n");
  r.digest = d.hex();
  r.phase("report", spans.close(sp));
  r.t_extracted = now_ns();

  r.requests = requests;
  r.net = std::move(net);
  r.shards = traffic->shards();
  r.checked = traffic->validator() != nullptr;
  traffic.reset();
  // SyntheticTraffic does not expose its fabric; a Network built from the
  // same config resolves the tick mode from the same environment.
  r.tick_mode = rc::to_string(rc::Network(noc).tick_mode());

  for (int i = 1; i < o.setup_reps; ++i) {
    sp = spans.open("sim.setup_rep", root);
    rc::SyntheticTraffic again(noc, o.rate, o.service, o.seed, o.shards);
    r.setup_reps_s.push_back(spans.close(sp));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Result r;
  r.t_main = now_ns();
  const Options o = parse_args(argc, argv);
  Spans spans;
  const int root = spans.open("run", -1);
  try {
    if (o.kind == "system")
      run_system(o, spans, root, r);
    else
      run_synthetic(o, spans, root, r);
  } catch (const std::bad_alloc&) {
    std::printf("{\"ok\":false,\"error\":\"bad_alloc\"}\n");
    return 3;
  } catch (const std::exception& e) {
    std::printf("{\"ok\":false,\"error\":%s}\n", json_str(e.what()).c_str());
    return 3;
  }
  spans.close(root);
  std::printf("%s\n", r.json(spans).c_str());
  return 0;
}
