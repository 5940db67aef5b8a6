// rc-fuzz: seeded configuration fuzzer for the RC_CHECK invariant checker.
//
// Sweeps randomized-but-reproducible configurations (mesh size, VC counts,
// circuit variant, circuits per port, traffic mix, seeds) through short
// whole-system runs with the Validator attached, and reports the first
// violating configuration as a ready-to-paste rc-sim repro command.
//
//   rc-fuzz [--configs N] [--cycles N] [--seed N] [--warmup N] [--verbose]
//           [--spec-out FILE] [--snapshot-every N]
//
// --spec-out FILE writes the sampled configurations as an rc-dse sweep spec
// (explicit "points" entries) instead of running them in-process: the same
// seeded coverage, but each point in its own crash-isolated subprocess with
// a journal to resume from.
//
// --snapshot-every N is the snapshot torture mode: every N cycles the run
// is saved, reloaded into a fresh System, re-saved (save -> load -> save
// must reproduce the file byte-for-byte), and *continued from the reloaded
// System* — so the rest of the run, including the Validator's per-cycle
// scans, executes on restored state. Any serialization gap becomes a
// byte-diff, a load failure, or a downstream RC_CHECK violation with the
// usual repro command.
//
// Exit status: 0 when every configuration ran clean, 1 on the first
// violation (after printing the repro), 2 on bad flags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "cpu/apps.hpp"
#include "sim/presets.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"
#include "sim/validator.hpp"
#include "tool_main.hpp"

using namespace rc;

namespace {

struct FuzzCase {
  std::string preset;
  std::string app;
  int mesh_w = 4, mesh_h = 4;
  int circuits = -1;  ///< -1 = preset default
  int slack = -1;
  int depth = -1;  ///< per-VC buffer depth in flits; -1 = config default
  int vcs_req = 2;
  int vcs_rep = 2;
  int shards = 1;  ///< worker shards (PR 3's parallel tick engine)
  TopologyKind topology = TopologyKind::Mesh;
  McPlacement mc = McPlacement::EdgeMiddle;
  Protocol protocol = Protocol::FullMapMESI;
  int dir_pointers = -1;  ///< sparse-directory geometry; -1 = config default
  int dir_sets = -1;
  int dir_ways = -1;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--configs N] [--cycles N] [--seed N] [--warmup N]"
               " [--verbose] [--spec-out FILE] [--snapshot-every N]\n",
               argv0);
  std::exit(2);
}

/// Draw one configuration. Every choice comes from `rng`, so (seed, index)
/// fully determines the case.
FuzzCase draw_case(Rng& rng) {
  FuzzCase fc;
  const auto& presets = preset_names();
  const auto& apps = app_names();
  fc.preset = presets[rng.next_below(presets.size())];
  fc.app = apps[rng.next_below(apps.size())];
  static const int kMesh[][2] = {{2, 2}, {4, 2}, {4, 4}, {8, 4}, {8, 8}};
  const auto& m = kMesh[rng.next_below(5)];
  fc.mesh_w = m[0];
  fc.mesh_h = m[1];
  CircuitConfig cc = circuit_preset(fc.preset);
  if (cc.uses_circuits() && rng.chance(0.5)) {
    static const int kCircs[] = {1, 2, 3, 5, 8};
    fc.circuits = kCircs[rng.next_below(5)];
  }
  if (cc.slack_per_hop > 0 && rng.chance(0.5))
    fc.slack = 1 + static_cast<int>(rng.next_below(4));
  // Minimum-depth buffers (1 or 2 flits) force the VC rings through their
  // wraparound/full/empty edges on every packet: a 5-flit data message
  // through a 1-flit buffer is a continuous stall-and-drain exercise. Keep
  // most cases at the default depth so the common configuration stays the
  // bulk of the coverage.
  if (rng.chance(0.25)) fc.depth = 1 + static_cast<int>(rng.next_below(2));
  fc.vcs_req = 1 + static_cast<int>(rng.next_below(3));
  const int needed = cc.num_circuit_vcs() + 1;
  fc.vcs_rep = needed + static_cast<int>(rng.next_below(3));
  // Sharded execution must be invariant-clean too (results are defined to
  // be bit-identical, so any divergence is a bug the checker should see).
  // Weighted toward serial, which keeps the checker's single-thread path
  // covered; clamped to num_nodes by System anyway.
  static const int kShards[] = {1, 1, 2, 4, 8};
  fc.shards = kShards[rng.next_below(5)];
  // Topology x MC-placement axis. Weighted toward the paper's mesh; every
  // kMesh size above is even and at least 2x2, so all four kinds accept it.
  static const TopologyKind kTopo[] = {
      TopologyKind::Mesh, TopologyKind::Mesh, TopologyKind::Mesh,
      TopologyKind::Torus, TopologyKind::Ring, TopologyKind::CMesh};
  fc.topology = kTopo[rng.next_below(6)];
  static const McPlacement kMc[] = {McPlacement::EdgeMiddle,
                                    McPlacement::Corner,
                                    McPlacement::Diagonal};
  fc.mc = kMc[rng.next_below(3)];
  // Coherence-protocol axis: half the sweep runs the sparse-directory MSI
  // variant, with deliberately scarce directories (few sets/ways, 1-8
  // pointers) so entry evictions and pointer-overflow recalls actually
  // fire, and half of those swapped onto the structured sharing-stress
  // generators where those storms are densest.
  if (rng.chance(0.5)) {
    fc.protocol = Protocol::SparseMSI;
    static const int kPtrs[] = {1, 2, 4, 8};
    fc.dir_pointers = kPtrs[rng.next_below(4)];
    static const int kDirSets[] = {16, 64, 256};
    fc.dir_sets = kDirSets[rng.next_below(3)];
    static const int kDirWays[] = {2, 4, 8};
    fc.dir_ways = kDirWays[rng.next_below(3)];
    if (rng.chance(0.5))
      fc.app = rng.chance(0.5) ? "producer_consumer" : "sharing_heavy";
  }
  fc.seed = 1 + rng.next_below(1u << 20);
  return fc;
}

SystemConfig to_config(const FuzzCase& fc, Cycle warmup, Cycle cycles) {
  SystemConfig cfg = make_system_config(16, fc.preset, fc.app, fc.seed);
  cfg.noc.mesh_w = fc.mesh_w;
  cfg.noc.mesh_h = fc.mesh_h;
  cfg.noc.topology = fc.topology;
  cfg.noc.mc_placement = fc.mc;
  cfg.noc.vcs_request_vn = fc.vcs_req;
  cfg.noc.vcs_reply_vn = fc.vcs_rep;
  if (fc.circuits >= 0) cfg.noc.circuit.circuits_per_input = fc.circuits;
  if (fc.slack >= 0) cfg.noc.circuit.slack_per_hop = fc.slack;
  if (fc.depth >= 1) cfg.noc.buffer_depth_flits = fc.depth;
  cfg.protocol = fc.protocol;
  if (fc.dir_pointers >= 1) cfg.cache.dir_pointers = fc.dir_pointers;
  if (fc.dir_sets >= 1) cfg.cache.dir_sets = fc.dir_sets;
  if (fc.dir_ways >= 1) cfg.cache.dir_ways = fc.dir_ways;
  cfg.shards = fc.shards;
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = cycles;
  return cfg;
}

/// One rc-dse "points" entry for the case. Only non-default knobs are
/// emitted, mirroring repro_command's flag selection.
std::string spec_point(const FuzzCase& fc) {
  std::string p = "    {\"preset\": \"" + fc.preset + "\", \"app\": \"" +
                  fc.app + "\", \"mesh\": \"" + std::to_string(fc.mesh_w) +
                  "x" + std::to_string(fc.mesh_h) + "\", \"topology\": \"" +
                  to_string(fc.topology) + "\", \"mc_placement\": \"" +
                  to_string(fc.mc) + "\", \"vcs_req\": " +
                  std::to_string(fc.vcs_req) + ", \"vcs_rep\": " +
                  std::to_string(fc.vcs_rep) + ", \"shards\": " +
                  std::to_string(fc.shards);
  if (fc.protocol != Protocol::FullMapMESI) {
    p += std::string(", \"protocol\": \"") + to_string(fc.protocol) + "\"";
    if (fc.dir_pointers >= 1)
      p += ", \"dir_pointers\": " + std::to_string(fc.dir_pointers);
    if (fc.dir_sets >= 1) p += ", \"dir_sets\": " + std::to_string(fc.dir_sets);
    if (fc.dir_ways >= 1) p += ", \"dir_ways\": " + std::to_string(fc.dir_ways);
  }
  if (fc.circuits >= 0) p += ", \"circuits\": " + std::to_string(fc.circuits);
  if (fc.slack >= 0) p += ", \"slack\": " + std::to_string(fc.slack);
  if (fc.depth >= 1) p += ", \"buf_depth\": " + std::to_string(fc.depth);
  p += ", \"seed\": " + std::to_string(fc.seed) + "}";
  return p;
}

std::string repro_command(const FuzzCase& fc, Cycle warmup, Cycle cycles,
                          const char* hang) {
  // rc-sim has no --shards flag; RC_SHARDS drives the engine the same way
  // (SystemConfig::shards == 0 defers to the environment).
  std::string cmd = "RC_CHECK=1 RC_SHARDS=" + std::to_string(fc.shards) +
                    " RC_HANG_CYCLES=" + std::string(hang) +
                    " build/tools/rc-sim --cores 16 --preset " + fc.preset +
                    " --app " + fc.app + " --mesh " +
                    std::to_string(fc.mesh_w) + "x" +
                    std::to_string(fc.mesh_h) + " --topology " +
                    to_string(fc.topology) + " --mc-placement " +
                    to_string(fc.mc) + " --vcs-req " +
                    std::to_string(fc.vcs_req) + " --vcs-rep " +
                    std::to_string(fc.vcs_rep);
  if (fc.protocol != Protocol::FullMapMESI) {
    cmd += std::string(" --protocol ") + to_string(fc.protocol);
    if (fc.dir_pointers >= 1)
      cmd += " --dir-pointers " + std::to_string(fc.dir_pointers);
    if (fc.dir_sets >= 1) cmd += " --dir-sets " + std::to_string(fc.dir_sets);
    if (fc.dir_ways >= 1) cmd += " --dir-ways " + std::to_string(fc.dir_ways);
  }
  if (fc.circuits >= 0) cmd += " --circuits " + std::to_string(fc.circuits);
  if (fc.slack >= 0) cmd += " --slack " + std::to_string(fc.slack);
  if (fc.depth >= 1) cmd += " --buf-depth " + std::to_string(fc.depth);
  cmd += " --seed " + std::to_string(fc.seed) + " --warmup " +
         std::to_string(warmup) + " --cycles " + std::to_string(cycles);
  return cmd;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Snapshot torture drive: like System::run(), but every `every` cycles the
/// state is saved, reloaded into a fresh System, re-saved and byte-compared
/// (save -> load -> save is a fixed point), and the run continues from the
/// *reloaded* System. Throws FatalError on any snapshot-layer failure so
/// the caller's violation reporting (with the repro command) kicks in.
void torture_run(const SystemConfig& cfg, Cycle every) {
  auto sys = std::make_unique<System>(cfg);
  sys->prewarm();
  const std::string snap = "rcfuzz_torture.state";
  const std::string resaved = "rcfuzz_torture2.state";
  auto checkpoint = [&]() {
    std::string serr;
    if (!save_snapshot(*sys, snap, &serr))
      throw FatalError("snapshot save failed: " + serr);
    auto fresh = std::make_unique<System>(cfg);
    if (load_snapshot(fresh.get(), snap, &serr) != SnapshotStatus::Ok)
      throw FatalError("snapshot load failed: " + serr);
    if (!save_snapshot(*fresh, resaved, &serr))
      throw FatalError("snapshot re-save failed: " + serr);
    if (slurp(snap) != slurp(resaved))
      throw FatalError("snapshot round-trip diverged at cycle " +
                       std::to_string(sys->now()) +
                       " (save -> load -> save is not a fixed point)");
    sys = std::move(fresh);
  };
  auto span = [&](Cycle n) {
    while (n > 0) {
      const Cycle step = std::min(every, n);
      sys->run_cycles(step);
      n -= step;
      checkpoint();
    }
  };
  span(cfg.warmup_cycles);
  sys->reset_stats();
  span(cfg.measure_cycles);
  std::remove(snap.c_str());
  std::remove(resaved.c_str());
}

/// The tool's main; tool_main() below maps library errors to exit 2.
int run(int argc, char** argv) {
  long long configs = 25;
  long long cycles = 2'000;
  long long warmup = 500;
  std::uint64_t seed = 1;
  bool verbose = false;
  std::string spec_out;
  long long snapshot_every = 0;
  for (int i = 1; i < argc; ++i) {
    auto need_int = [&](const char* flag, long long min_v) -> long long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
      }
      const char* v = argv[++i];
      auto parsed = parse_ll(v);
      if (!parsed || *parsed < min_v) {
        std::fprintf(stderr, "%s: \"%s\" is not an integer >= %lld\n", flag, v,
                     min_v);
        std::exit(2);
      }
      return *parsed;
    };
    if (!std::strcmp(argv[i], "--configs")) configs = need_int("--configs", 1);
    else if (!std::strcmp(argv[i], "--cycles")) cycles = need_int("--cycles", 1);
    else if (!std::strcmp(argv[i], "--warmup")) warmup = need_int("--warmup", 0);
    else if (!std::strcmp(argv[i], "--seed"))
      seed = static_cast<std::uint64_t>(need_int("--seed", 0));
    else if (!std::strcmp(argv[i], "--snapshot-every"))
      snapshot_every = need_int("--snapshot-every", 1);
    else if (!std::strcmp(argv[i], "--verbose")) verbose = true;
    else if (!std::strcmp(argv[i], "--spec-out")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--spec-out needs a value\n");
        usage(argv[0]);
      }
      spec_out = argv[++i];
    }
    else if (!std::strcmp(argv[i], "--help")) usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      usage(argv[0]);
    }
  }

  // Enable the checker for every System built below. The watchdog window
  // covers the whole run: a message that outlives warm-up + measurement is
  // certainly stuck in a run this short.
  const std::string hang = std::to_string(warmup + cycles);
  setenv("RC_CHECK", "1", 1);
  setenv("RC_HANG_CYCLES", hang.c_str(), 1);

  Rng root(seed ? seed : 1);

  // --spec-out: same seeded draw as the run path below (identical coverage
  // for a given --seed), but emitted as an rc-dse spec instead of executed.
  if (!spec_out.empty()) {
    std::string spec = "{\n  \"warmup\": " + std::to_string(warmup) +
                       ",\n  \"cycles\": " + std::to_string(cycles) +
                       ",\n  \"points\": [\n";
    int emitted = 0;
    for (long long i = 0; i < configs; ++i) {
      Rng rng = root.fork(i + 1);
      FuzzCase fc = draw_case(rng);
      SystemConfig cfg = to_config(fc, static_cast<Cycle>(warmup),
                                   static_cast<Cycle>(cycles));
      if (!cfg.validate().empty()) continue;
      if (emitted++ > 0) spec += ",\n";
      spec += spec_point(fc);
    }
    spec += "\n  ]\n}\n";
    std::string werr;
    if (!write_file_atomic(spec_out, spec, &werr)) {
      std::fprintf(stderr, "rc-fuzz: cannot write %s: %s\n", spec_out.c_str(),
                   werr.c_str());
      return 2;
    }
    std::printf("[rc-fuzz] wrote %d point(s) to %s\n", emitted,
                spec_out.c_str());
    return 0;
  }

  int ran = 0, skipped = 0;
  for (long long i = 0; i < configs; ++i) {
    Rng rng = root.fork(i + 1);
    FuzzCase fc = draw_case(rng);
    SystemConfig cfg = to_config(fc, static_cast<Cycle>(warmup),
                                 static_cast<Cycle>(cycles));
    std::string err = cfg.validate();
    if (!err.empty()) {
      // Shouldn't happen (draw_case respects the config rules); count it so
      // a drifting generator can't silently shrink coverage.
      ++skipped;
      if (verbose)
        std::fprintf(stderr, "[rc-fuzz] %lld: SKIP (%s)\n", i, err.c_str());
      continue;
    }
    if (verbose)
      std::fprintf(stderr,
                   "[rc-fuzz] %lld: %s/%s %dx%d %s/%s proto=%s dir=%d/%d/%d "
                   "circs=%d slack=%d depth=%d vcs=%d/%d shards=%d "
                   "seed=%llu\n",
                   i, fc.preset.c_str(), fc.app.c_str(), fc.mesh_w, fc.mesh_h,
                   to_string(fc.topology), to_string(fc.mc),
                   to_string(fc.protocol), fc.dir_sets, fc.dir_ways,
                   fc.dir_pointers, fc.circuits, fc.slack, fc.depth,
                   fc.vcs_req, fc.vcs_rep, fc.shards,
                   static_cast<unsigned long long>(fc.seed));
    try {
      if (snapshot_every > 0) {
        torture_run(cfg, static_cast<Cycle>(snapshot_every));
      } else {
        System sys(cfg);
        sys.run();
      }
      ++ran;
    } catch (const FatalError& e) {
      std::fprintf(stderr,
                   "\n[rc-fuzz] VIOLATION at config %lld (sweep seed %llu):\n"
                   "  %s\n\nrepro:\n  %s\n",
                   i, static_cast<unsigned long long>(seed), e.what(),
                   repro_command(fc, static_cast<Cycle>(warmup),
                                 static_cast<Cycle>(cycles), hang.c_str())
                       .c_str());
      return 1;
    }
  }
  std::printf("[rc-fuzz] %d config(s) x %lld cycles clean, %d skipped, "
              "0 violations\n",
              ran, cycles, skipped);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tool_main("rc-fuzz", run, argc, argv);
}
