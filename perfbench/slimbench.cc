// SlimStore benchmark driver. Runs one named workload against the public
// API (core::SlimStore, cluster::ShardedCluster) on a fresh
// MemoryObjectStore, checks every output, and prints the metrics as one
// JSON object on the last line of standard output.
//
//   slimbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1
// runs the measured phase once untraced and once traced and reports the
// per-layer metrics. A run makes a fixed number of passes, sized from
// --seconds (see Workload::pass_seconds), so its work and its counts of
// attempted and failed operations depend on the arguments alone.
// --seconds 0 runs only the fewest passes a workload allows (the
// deterministic-count check uses it).
//
// See README.md in this directory for every metric and workload.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chunking/chunker.h"
#include "cluster/sharded_cluster.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/slimstore.h"
#include "durability/checksum.h"
#include "format/container.h"
#include "metered_store.h"
#include "oss/memory_object_store.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using slim::obs::OssOp;

// ---------------------------------------------------------------------
// Clocks, digests, statistics.

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Seconds(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Pins the calling thread to one allowed CPU per pass, in turn. On a
/// virtual machine each virtual CPU is slowed by its own neighbours on
/// the host, so a single client the scheduler leaves on one CPU measures
/// that CPU's luck; taking every pass on the next CPU spreads a run over
/// all of them.
class CpuTurns {
 public:
  CpuTurns() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  void Pin(size_t turn) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Release() {
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

/// 128-bit content digest, independent of the program's own hashes, so a
/// fault in them cannot hide a wrong restore.
struct Digest {
  uint64_t a = 0;
  uint64_t b = 0;
  bool operator==(const Digest&) const = default;
};

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

Digest DigestOf(std::string_view data) {
  uint64_t a = 0x9e3779b97f4a7c15ull ^ data.size();
  uint64_t b = 0x632be59bd9b4e019ull + data.size();
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    a = (a ^ w) * 0x100000001b3ull + (a >> 29);
    b = (b + w) * 0xff51afd7ed558ccdull;
    b ^= b >> 31;
  }
  for (; i < data.size(); ++i) {
    a = (a ^ static_cast<uint8_t>(data[i])) * 0x100000001b3ull;
    b = (b + static_cast<uint8_t>(data[i])) * 0xc4ceb9fe1a85ec53ull;
  }
  return Digest{Mix(a), Mix(b ^ a)};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples above its rank when `samples` values are taken; 50 when even
/// the median cannot.
double TailPercentileFor(size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples)));
    if (samples >= rank + 10) return p;
  }
  return 50.0;
}

// ---------------------------------------------------------------------
// Results of a stretch of work.

/// One kind of foreground operation (backup or restore) in one pass.
struct OpTotals {
  size_t attempted = 0;
  std::vector<double> latencies_s;  // Successful operations.
  uint64_t bytes = 0;               // Bytes of successful operations.
  double wall_s = 0;                // Wall time of the phase.
  double cpu_s = 0;                 // Process CPU time of the phase.
};

/// A pass of the measured phase, or one set-up of the workload.
struct PassTotals {
  bool setup = false;
  OpTotals backup, restore;
  double wall_s = 0;   // Sum of the pass's timed calls.
  double whole_s = 0;  // The whole pass, untimed checks included.
};

/// Sums of the stats structs the public calls return.
struct LayerStats {
  uint64_t backup_logical = 0, backup_dup = 0, backup_chunks = 0;
  uint64_t skip_successes = 0, skip_failures = 0, segments_fetched = 0;
  uint64_t chunking_ns = 0, fingerprint_ns = 0, index_ns = 0, other_ns = 0;
  uint64_t restore_logical = 0, chunks_restored = 0, containers_fetched = 0;
  uint64_t bytes_fetched = 0, cache_hits = 0, disk_spills = 0, redirects = 0;
  uint64_t gnode_cycles = 0;
  slim::gnode::SccStats scc;
  slim::gnode::ReverseDedupStats rd;
  uint64_t gc_containers_deleted = 0, gc_bytes_reclaimed = 0;

  void Add(const slim::lnode::BackupStats& s) {
    backup_logical += s.logical_bytes;
    backup_dup += s.dup_bytes;
    backup_chunks += s.total_chunks;
    skip_successes += s.skip_successes;
    skip_failures += s.skip_failures;
    segments_fetched += s.segments_fetched;
    chunking_ns += s.cpu.chunking_nanos;
    fingerprint_ns += s.cpu.fingerprint_nanos;
    index_ns += s.cpu.index_nanos;
    other_ns += s.cpu.other_nanos;
  }
  void Add(const slim::lnode::RestoreStats& s) {
    restore_logical += s.logical_bytes;
    chunks_restored += s.chunks_restored;
    containers_fetched += s.containers_fetched;
    bytes_fetched += s.bytes_fetched;
    cache_hits += s.cache_hits;
    disk_spills += s.disk_spills;
    redirects += s.redirects;
  }
  void Add(const slim::core::GNodeCycleStats& s) {
    ++gnode_cycles;
    scc += s.scc;
    rd += s.reverse_dedup;
  }
  void Add(const slim::gnode::GcStats& s) {
    gc_containers_deleted += s.containers_deleted;
    gc_bytes_reclaimed += s.bytes_reclaimed;
  }
};

/// A public call seen from the benchmark: one span of the trace.
struct CallSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double cpu_s = 0;
};

struct Results {
  std::vector<PassTotals> passes;
  std::vector<double> gnode_s, gc_s;
  uint64_t attempted = 0, failed = 0;
  /// Outputs that were wrong although the call reported success (a
  /// restore whose bytes differ, a backup whose byte accounting does not
  /// add up). Any makes the run incorrect.
  uint64_t incorrect = 0;
  std::vector<std::string> messages;  // First few failures, for stderr.
  OssCounts oss;                      // Traffic of the timed calls.
  uint64_t work_bytes = 0;            // Logical bytes those calls moved.
  LayerStats layers;
  // Cluster scheduling.
  std::map<std::string, std::vector<double>> tenant_latency_s;
  size_t max_in_flight = 0;
  // Trace.
  std::vector<CallSpan> calls;
  std::vector<OpSpan> oss_spans;

  PassTotals& pass() { return passes.back(); }
  /// Timed wall of every measured (non-set-up) pass.
  std::vector<double> PassWalls() const {
    std::vector<double> out;
    for (const auto& p : passes) {
      if (!p.setup) out.push_back(p.wall_s);
    }
    return out;
  }

  void Fail(const std::string& what) {
    ++failed;
    if (messages.size() < 5) messages.push_back(what);
  }
  /// A wrong output is also a failed operation.
  void Wrong(const std::string& what) {
    ++incorrect;
    Fail("INCORRECT " + what);
  }
};

// ---------------------------------------------------------------------
// Environment shared by all workloads.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// A fresh object store with the benchmark's meter on top. The store is
/// in memory: on a shared virtual disk (ext4, data=ordered, online
/// discard) the many small puts and deletes of a backup made its wall
/// time vary twofold from one run to the next, with no change in the
/// program.
struct Backend {
  Backend() : meter(&base) {}

  slim::oss::MemoryObjectStore base;
  MeteredStore meter;
};

class Env {
 public:
  explicit Env(Args args) : args_(std::move(args)) {}

  const Args& args() const { return args_; }
  Results& results() { return *results_; }
  void set_results(Results* r) { results_ = r; }
  void set_tracing(bool on) { tracing_ = on; }
  /// While set, timed calls add nothing to the OSS-cost totals (set-up
  /// and verification are not part of the measured work).
  void set_counting_off(bool on) { counting_off_ = on; }

  /// A fresh store; it replaces the previous one, whose users must be
  /// gone.
  Backend* NewBackend() {
    backend_.reset();
    backend_ = std::make_unique<Backend>();
    backend_->meter.set_tracing(tracing_);
    return backend_.get();
  }

  /// Runs one public call: wall and process-CPU time, OSS traffic and,
  /// when tracing, a span. Returns fn's result; `wall_s`/`cpu_s` receive
  /// the call's times.
  template <typename F>
  auto Call(const char* name, MeteredStore* meter, F&& fn, double* wall_s,
            double* cpu_s = nullptr) {
    OssCounts before = meter->Snapshot();
    double cpu0 = ProcessCpuSeconds();
    uint64_t t0 = NowNanos();
    auto r = fn();
    uint64_t t1 = NowNanos();
    double cpu = ProcessCpuSeconds() - cpu0;
    *wall_s = Seconds(t0, t1);
    if (cpu_s != nullptr) *cpu_s = cpu;
    results_->pass().wall_s += *wall_s;
    if (!counting_off_) results_->oss += meter->Snapshot() - before;
    if (tracing_) results_->calls.push_back(CallSpan{name, t0, t1, cpu});
    return r;
  }

  /// Start / end of one pass of the measured phase, or of one set-up.
  void BeginPass(bool setup) {
    results_->passes.emplace_back();
    results_->pass().setup = setup;
  }
  /// Moves the OSS spans the meter traced during the pass into the
  /// results.
  void EndPass(MeteredStore* meter) {
    if (!tracing_) return;
    auto spans = meter->TakeSpans();
    results_->oss_spans.insert(results_->oss_spans.end(), spans.begin(),
                               spans.end());
  }

  // -- Checked public calls, shared by the single-store workloads. ----

  void Backup(slim::core::SlimStore* store, MeteredStore* meter,
              const std::string& file_id, const std::string& data,
              uint64_t expect_version) {
    Results& r = *results_;
    OpTotals& op = r.pass().backup;
    ++r.attempted;
    ++op.attempted;
    double wall = 0, cpu = 0;
    auto stats = Call("Backup", meter,
                      [&] { return store->Backup(file_id, data); }, &wall,
                      &cpu);
    op.wall_s += wall;
    op.cpu_s += cpu;
    if (!counting_off_) r.work_bytes += data.size();
    if (!stats.ok()) {
      r.Fail("backup " + file_id + ": " + stats.status().ToString());
      return;
    }
    const auto& s = stats.value();
    if (s.logical_bytes != data.size() ||
        s.dup_bytes + s.new_bytes != s.logical_bytes ||
        s.version != expect_version) {
      r.Wrong("backup " + file_id + ": byte accounting or version");
      return;
    }
    op.latencies_s.push_back(wall);
    op.bytes += data.size();
    r.layers.Add(s);
  }

  void Restore(slim::core::SlimStore* store, MeteredStore* meter,
               const std::string& file_id, uint64_t version,
               const Digest& expect, uint64_t expect_size) {
    Results& r = *results_;
    OpTotals& op = r.pass().restore;
    ++r.attempted;
    ++op.attempted;
    double wall = 0;
    slim::lnode::RestoreStats stats;
    auto bytes = Call("Restore", meter,
                      [&] { return store->Restore(file_id, version, &stats); },
                      &wall);
    op.wall_s += wall;
    if (!counting_off_) r.work_bytes += expect_size;
    std::string what = "restore " + file_id + " v" + std::to_string(version);
    if (!bytes.ok()) {
      r.Fail(what + ": " + bytes.status().ToString());
      return;
    }
    if (bytes.value().size() != expect_size ||
        !(DigestOf(bytes.value()) == expect)) {
      r.Wrong(what + ": bytes differ from the backed-up version");
      return;
    }
    op.latencies_s.push_back(wall);
    op.bytes += expect_size;
    r.layers.Add(stats);
  }

  void GNodeCycle(slim::core::SlimStore* store, MeteredStore* meter) {
    Results& r = *results_;
    ++r.attempted;
    double wall = 0;
    auto stats = Call("RunGNodeCycle", meter,
                      [&] { return store->RunGNodeCycle(); }, &wall);
    if (!stats.ok()) {
      r.Fail("gnode cycle: " + stats.status().ToString());
      return;
    }
    r.gnode_s.push_back(wall);
    r.layers.Add(stats.value());
  }

  void Delete(slim::core::SlimStore* store, MeteredStore* meter,
              const std::string& file_id, uint64_t version) {
    Results& r = *results_;
    ++r.attempted;
    double wall = 0;
    auto stats = Call("DeleteVersion", meter,
                      [&] { return store->DeleteVersion(file_id, version); },
                      &wall);
    if (!stats.ok()) {
      r.Fail("delete " + file_id + ": " + stats.status().ToString());
      return;
    }
    r.gc_s.push_back(wall);
    r.layers.Add(stats.value());
  }

  /// VerifyRepository; returns (problems, redirected chunks).
  std::pair<uint64_t, uint64_t> Verify(slim::core::SlimStore* store,
                                       MeteredStore* meter) {
    double wall = 0;
    auto report = Call("VerifyRepository", meter,
                       [&] { return store->VerifyRepository(); }, &wall);
    if (!report.ok()) {
      results_->messages.push_back("verify: " + report.status().ToString());
      return {1, 0};
    }
    for (size_t i = 0; i < report.value().problems.size() && i < 3; ++i) {
      std::fprintf(stderr, "verify problem: %s\n",
                   report.value().problems[i].c_str());
    }
    return {report.value().problems.size(),
            report.value().redirected_chunks};
  }

 private:
  Args args_;
  Results* results_ = nullptr;
  bool tracing_ = false;
  bool counting_off_ = false;
  std::unique_ptr<Backend> backend_;
};

// ---------------------------------------------------------------------
// Workloads.

/// Every version of every file of a dataset, materialized with digests.
struct Versions {
  std::vector<std::string> file_ids;
  std::vector<std::vector<std::string>> data;  // [file][version]
  std::vector<std::vector<Digest>> digests;    // [file][version]

  static Versions From(slim::workload::Dataset ds) {
    Versions v;
    size_t files = ds.file_count();
    v.data.resize(files);
    v.digests.resize(files);
    for (size_t f = 0; f < files; ++f) v.file_ids.push_back(ds.file_id(f));
    do {
      for (size_t f = 0; f < files; ++f) {
        v.digests[f].push_back(DigestOf(ds.file_data(f)));
        v.data[f].push_back(ds.file_data(f));
      }
    } while (ds.NextVersion());
    return v;
  }
  size_t versions() const { return digests.empty() ? 0 : digests[0].size(); }
  uint64_t size(size_t f, size_t version) const {
    return data[f][version].size();
  }
  /// Digest over every generated byte (a seed must change it).
  std::string InputDigest() const {
    uint64_t a = 0, b = 0;
    for (const auto& file : digests) {
      for (const auto& d : file) {
        a = Mix(a ^ d.a);
        b = Mix(b + d.b);
      }
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, a, b);
    return buf;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs and any pre-populated state (set-up time).
  virtual void Setup(Env& env) = 0;
  /// One pass of the measured phase; a pass repeats the same operations.
  virtual void RunPass(Env& env, size_t pass) = 0;
  /// VerifyRepository over the state the last pass left; returns
  /// (problems, redirected chunks).
  virtual std::pair<uint64_t, uint64_t> Verify(Env& env) = 0;
  /// Generated bytes the replay probes chunk and fingerprint.
  virtual std::vector<const std::string*> SampleInputs() const = 0;
  virtual std::string InputDigest() const = 0;
  /// The store the last pass (or set-up) used.
  virtual Backend* backend() = 0;
  MeteredStore* meter() { return &backend()->meter; }
  /// Fewest passes of an end-to-end run, so that each median is taken
  /// over several unless one pass alone outlasts the run.
  virtual size_t min_passes() const { return 3; }
  /// Wall time of one whole pass on the reference host (a 4-vCPU Xeon
  /// VM). A run of S seconds makes S / pass_seconds() passes: a fixed
  /// count rather than "until S have elapsed", because the count of
  /// attempted and failed operations must not depend on how fast the
  /// host happened to be.
  virtual double pass_seconds() const = 0;
  /// Set-ups of an end-to-end run; setup_s is their median. Cheap
  /// set-ups (well under a second) run often enough for a steady median.
  virtual int setup_reps() const { return 11; }
  /// One client thread and no program threads: passes may be pinned.
  virtual bool single_client() const { return true; }

  /// Stored bytes per logical byte backed up into the state the last
  /// pass (or set-up) built.
  double stored_per_logical = 0;
};

std::vector<const std::string*> LatestOf(const Versions& v, size_t limit) {
  std::vector<const std::string*> out;
  size_t last = v.versions() - 1;
  for (size_t f = 0; f < v.data.size() && out.size() < limit; ++f) {
    out.push_back(&v.data[f][last]);
  }
  return out;
}

/// A single SlimStore with default options on a fresh backend.
struct SingleStore {
  Backend* backend = nullptr;
  std::unique_ptr<slim::core::SlimStore> store;

  void Reset(Env& env) {
    store.reset();
    backend = env.NewBackend();
    store = std::make_unique<slim::core::SlimStore>(
        &backend->meter, slim::core::SlimStoreOptions{});
  }
  double StoredPerLogical(uint64_t logical) {
    auto space = store->GetSpaceReport();
    if (!space.ok() || logical == 0) return 0.0;
    return static_cast<double>(space.value().total()) /
           static_cast<double>(logical);
  }
};

/// S-DB write path: every version of every file in order, no G-node,
/// then a byte-checked restore of each file's latest version.
class SdbBackup : public Workload {
 public:
  void Setup(Env& env) override {
    slim::workload::SdbOptions o;
    o.num_files = 8;
    o.file_size = 2 << 20;
    o.num_versions = 10;
    o.seed = env.args().seed;
    versions_ = Versions::From(slim::workload::Dataset::MakeSdb(o));
    db_.Reset(env);
    fresh_ = true;
  }
  void RunPass(Env& env, size_t) override {
    if (!fresh_) db_.Reset(env);
    fresh_ = false;
    uint64_t logical = 0;
    for (size_t v = 0; v < versions_.versions(); ++v) {
      for (size_t f = 0; f < versions_.file_ids.size(); ++f) {
        env.Backup(db_.store.get(), meter(), versions_.file_ids[f],
                   versions_.data[f][v], v);
        logical += versions_.size(f, v);
      }
    }
    size_t last = versions_.versions() - 1;
    for (size_t f = 0; f < versions_.file_ids.size(); ++f) {
      env.Restore(db_.store.get(), meter(), versions_.file_ids[f], last,
                  versions_.digests[f][last], versions_.size(f, last));
    }
    stored_per_logical = db_.StoredPerLogical(logical);
  }
  std::pair<uint64_t, uint64_t> Verify(Env& env) override {
    return env.Verify(db_.store.get(), meter());
  }
  std::vector<const std::string*> SampleInputs() const override {
    return LatestOf(versions_, 8);
  }
  std::string InputDigest() const override { return versions_.InputDigest(); }
  Backend* backend() override { return db_.backend; }
  double pass_seconds() const override { return 1.7; }

 private:
  Versions versions_;
  SingleStore db_;
  bool fresh_ = false;
};

/// S-DB read path: set-up backs up every version and runs one G-node
/// cycle over the whole backlog; a pass restores every (file, version)
/// in a seeded shuffled order.
class SdbRestore : public Workload {
 public:
  void Setup(Env& env) override {
    slim::workload::SdbOptions o;
    o.num_files = 4;
    o.file_size = 8 << 20;
    o.num_versions = 10;
    o.seed = env.args().seed;
    slim::workload::Dataset ds = slim::workload::Dataset::MakeSdb(o);
    db_.Reset(env);
    versions_ = Versions{};
    versions_.data.resize(ds.file_count());
    versions_.digests.resize(ds.file_count());
    for (size_t f = 0; f < ds.file_count(); ++f) {
      versions_.file_ids.push_back(ds.file_id(f));
    }
    sizes_.assign(ds.file_count(), {});
    uint64_t logical = 0;
    do {
      for (size_t f = 0; f < ds.file_count(); ++f) {
        const std::string& data = ds.file_data(f);
        versions_.digests[f].push_back(DigestOf(data));
        sizes_[f].push_back(data.size());
        if (ds.current_version() + 1 == ds.num_versions()) {
          latest_.push_back(data);
        }
        env.Backup(db_.store.get(), meter(), ds.file_id(f), data,
                   ds.current_version());
        logical += data.size();
      }
    } while (ds.NextVersion());
    env.GNodeCycle(db_.store.get(), meter());
    stored_per_logical = db_.StoredPerLogical(logical);
  }
  void RunPass(Env& env, size_t pass) override {
    std::vector<std::pair<size_t, size_t>> order;
    for (size_t f = 0; f < versions_.file_ids.size(); ++f) {
      for (size_t v = 0; v < versions_.digests[f].size(); ++v) {
        order.emplace_back(f, v);
      }
    }
    slim::Rng rng(env.args().seed * 7919 + pass);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (auto [f, v] : order) {
      env.Restore(db_.store.get(), meter(), versions_.file_ids[f], v,
                  versions_.digests[f][v], sizes_[f][v]);
    }
  }
  std::pair<uint64_t, uint64_t> Verify(Env& env) override {
    return env.Verify(db_.store.get(), meter());
  }
  std::vector<const std::string*> SampleInputs() const override {
    std::vector<const std::string*> out;
    for (const auto& d : latest_) out.push_back(&d);
    return out;
  }
  std::string InputDigest() const override { return versions_.InputDigest(); }
  Backend* backend() override { return db_.backend; }
  size_t min_passes() const override { return 1; }
  double pass_seconds() const override { return 6.5; }
  /// Each set-up takes seconds; the backup figures come from them.
  int setup_reps() const override { return 5; }

 private:
  Versions versions_;  // Digests only: the bytes are not kept.
  std::vector<std::vector<uint64_t>> sizes_;
  std::vector<std::string> latest_;
  SingleStore db_;
};

/// R-Data lifecycle: per round, back up every file, run a G-node cycle,
/// delete versions that left the retention window, restore every latest
/// version. A pass is the whole lifecycle on a fresh store.
class RdataLifecycle : public Workload {
 public:
  static constexpr size_t kRetention = 3;

  void Setup(Env& env) override {
    slim::workload::RdataOptions o;
    o.num_files = 16;
    o.file_size = 512 << 10;
    o.num_versions = 8;
    o.seed = env.args().seed;
    versions_ = Versions::From(slim::workload::Dataset::MakeRdata(o));
    db_.Reset(env);
    fresh_ = true;
  }
  void RunPass(Env& env, size_t) override {
    if (!fresh_) db_.Reset(env);
    fresh_ = false;
    slim::core::SlimStore* store = db_.store.get();
    uint64_t logical = 0;
    size_t files = versions_.file_ids.size();
    for (size_t r = 0; r < versions_.versions(); ++r) {
      for (size_t f = 0; f < files; ++f) {
        env.Backup(store, meter(), versions_.file_ids[f],
                   versions_.data[f][r], r);
        logical += versions_.size(f, r);
      }
      env.GNodeCycle(store, meter());
      if (r >= kRetention) {
        for (size_t f = 0; f < files; ++f) {
          env.Delete(store, meter(), versions_.file_ids[f], r - kRetention);
        }
      }
      for (size_t f = 0; f < files; ++f) {
        env.Restore(store, meter(), versions_.file_ids[f], r,
                    versions_.digests[f][r], versions_.size(f, r));
      }
    }
    stored_per_logical = db_.StoredPerLogical(logical);
  }
  std::pair<uint64_t, uint64_t> Verify(Env& env) override {
    return env.Verify(db_.store.get(), meter());
  }
  std::vector<const std::string*> SampleInputs() const override {
    return LatestOf(versions_, 64);
  }
  std::string InputDigest() const override { return versions_.InputDigest(); }
  Backend* backend() override { return db_.backend; }
  double pass_seconds() const override { return 1.3; }

 private:
  Versions versions_;
  SingleStore db_;
  bool fresh_ = false;
};

/// Multi-tenant waves: a ShardedCluster with a whale and three small
/// tenants runs one RunWave per pass holding every version's backups,
/// each file's backup of version v preceded by a restore of a random
/// earlier version. The scheduler runs one file's jobs in wave order, so
/// every restore sees the backup it reads committed.
class ClusterMixed : public Workload {
 public:
  static constexpr size_t kWhaleFiles = 3;
  static constexpr const char* kTenants[] = {"whale", "t1", "t2", "t3"};

  void Setup(Env& env) override {
    slim::workload::SdbOptions o;
    o.num_files = kWhaleFiles + 3;
    o.file_size = 1 << 20;
    o.num_versions = 8;
    o.seed = env.args().seed;
    versions_ = Versions::From(slim::workload::Dataset::MakeSdb(o));
    for (size_t f = 0; f < versions_.file_ids.size(); ++f) {
      tenant_of_.push_back(f < kWhaleFiles ? kTenants[0]
                                           : kTenants[f - kWhaleFiles + 1]);
    }
    NewCluster(env);
    fresh_ = true;
  }

  void RunPass(Env& env, size_t pass) override {
    if (!fresh_) NewCluster(env);
    fresh_ = false;
    Results& res = env.results();
    slim::Rng rng(env.args().seed * 104729 + pass);
    size_t files = versions_.file_ids.size();
    struct Restored {
      size_t file;
      size_t version;
    };
    std::vector<slim::cluster::WaveJob> jobs;
    std::vector<Restored> restored;
    uint64_t backup_bytes = 0, restore_bytes = 0;
    for (size_t v = 0; v < versions_.versions(); ++v) {
      for (size_t f = 0; f < files; ++f) {
        if (v > 0) {
          size_t u = rng.Uniform(v);
          jobs.push_back({tenant_of_[f], versions_.file_ids[f], nullptr, u});
          restored.push_back({f, u});
          restore_bytes += versions_.size(f, u);
        }
        jobs.push_back({tenant_of_[f], versions_.file_ids[f],
                        &versions_.data[f][v], v});
        backup_bytes += versions_.size(f, v);
      }
    }
    OpTotals& backup = res.pass().backup;
    OpTotals& restore = res.pass().restore;
    res.attempted += jobs.size();
    backup.attempted += files * versions_.versions();
    restore.attempted += restored.size();
    res.work_bytes += backup_bytes + restore_bytes;
    double wall = 0, cpu = 0;
    auto wave = env.Call("RunWave", meter(),
                         [&] { return cluster_->RunWave(jobs); }, &wall, &cpu);
    backup.wall_s += wall;
    backup.cpu_s += cpu;
    restore.wall_s += wall;
    if (!wave.ok()) {
      for (size_t i = 0; i < jobs.size(); ++i) {
        res.Fail("wave: " + wave.status().ToString());
      }
      stored_per_logical = 0.0;
      return;
    }
    const auto& w = wave.value();
    res.max_in_flight =
        std::max(res.max_in_flight, w.scheduler.max_total_in_flight);
    uint64_t backed_up = w.new_bytes + w.dup_bytes;
    for (size_t i = 0; i < w.failures; ++i) res.Fail("wave job failed");
    backup.bytes += backed_up;
    restore.bytes += w.logical_bytes - backed_up;
    for (const auto& [tenant, lat] : w.latency_by_tenant) {
      auto& all = res.tenant_latency_s[tenant];
      all.insert(all.end(), lat.begin(), lat.end());
    }
    auto stored = slim::oss::TotalBytesWithPrefix(backend_->base, kRoot);
    stored_per_logical =
        stored.ok() && backed_up > 0
            ? static_cast<double>(stored.value()) /
                  static_cast<double>(backed_up)
            : 0.0;
    // A failed job shifts the latency lists and leaves no version to
    // read back.
    if (w.failures != 0) return;
    if (backed_up != backup_bytes) {
      res.Wrong("wave byte accounting");
      return;
    }
    // RunWave lists each tenant's latencies in job order, so with no
    // failures the k-th latency of a tenant is its k-th job.
    std::map<std::string, size_t> next;
    for (const auto& job : jobs) {
      double s = w.latency_by_tenant.at(job.tenant)[next[job.tenant]++];
      (job.data != nullptr ? backup : restore).latencies_s.push_back(s);
    }
    // RunWave returns no restored bytes: read each restored version back
    // (untimed) and compare it with the generated one.
    std::sort(restored.begin(), restored.end(), [](auto& a, auto& b) {
      return std::tie(a.file, a.version) < std::tie(b.file, b.version);
    });
    restored.erase(std::unique(restored.begin(), restored.end(),
                               [](auto& a, auto& b) {
                                 return a.file == b.file &&
                                        a.version == b.version;
                               }),
                   restored.end());
    for (const auto& [f, u] : restored) {
      const std::string& id = versions_.file_ids[f];
      std::string what = "read-back of wave restore " + id + " v" +
                         std::to_string(u);
      auto bytes = cluster_->Restore(tenant_of_[f], id, u);
      if (!bytes.ok()) {
        res.Fail(what + ": " + bytes.status().ToString());
      } else if (!(DigestOf(bytes.value()) == versions_.digests[f][u])) {
        res.Wrong(what + ": bytes differ from the backed-up version");
      }
    }
  }

  /// Verifies every (tenant, shard) store the pass created.
  std::pair<uint64_t, uint64_t> Verify(Env& env) override {
    auto status = cluster_->GetStatus();
    if (!status.ok()) return {1, 0};
    std::vector<slim::core::SlimStoreOptions> stores;
    for (const auto& [node, shards] : status.value().shards_by_node) {
      for (uint32_t shard : shards) {
        for (const char* tenant : kTenants) {
          slim::core::SlimStoreOptions o;
          o.root = cluster_->StoreRoot(node, tenant, shard);
          o.tenant = tenant;
          stores.push_back(o);
        }
      }
    }
    cluster_.reset();  // Quiesce: verify each store from OSS alone.
    uint64_t problems = 0, redirected = 0;
    for (const auto& o : stores) {
      auto objects = backend_->base.List(o.root + "/");
      if (!objects.ok() || objects.value().empty()) continue;
      slim::core::SlimStore store(meter(), o);
      if (!store.Rebuild().ok()) {
        ++problems;
        continue;
      }
      auto [p, r] = env.Verify(&store, meter());
      problems += p;
      redirected += r;
    }
    return {problems, redirected};
  }
  std::vector<const std::string*> SampleInputs() const override {
    return LatestOf(versions_, 64);
  }
  std::string InputDigest() const override { return versions_.InputDigest(); }
  Backend* backend() override { return backend_; }
  bool single_client() const override { return false; }
  double pass_seconds() const override { return 0.8; }

 private:
  static constexpr const char* kRoot = "cluster";

  void NewCluster(Env& env) {
    cluster_.reset();
    backend_ = env.NewBackend();
    slim::cluster::ShardedClusterOptions o;
    o.root = kRoot;
    o.num_shards = 4;
    // Two nodes x one slot: two jobs at once leave half of a 4-core host
    // to the kernel and its other tenants, whose load would otherwise
    // decide the wave's wall time. The whale may hold one slot, so a
    // small tenant can always run beside it.
    o.backup_jobs_per_node = 1;
    o.restore_jobs_per_node = 1;
    o.per_tenant_quota = 1;
    auto c = slim::cluster::ShardedCluster::Create(&backend_->meter, o,
                                                   {"n0", "n1"});
    if (!c.ok()) {
      std::fprintf(stderr, "cluster create: %s\n",
                   c.status().ToString().c_str());
      std::exit(1);
    }
    cluster_ = std::move(c).value();
    for (const char* t : kTenants) {
      slim::Status s = cluster_->RegisterTenant(t);
      if (!s.ok()) {
        std::fprintf(stderr, "register %s: %s\n", t, s.ToString().c_str());
        std::exit(1);
      }
    }
  }

  Versions versions_;
  std::vector<std::string> tenant_of_;
  Backend* backend_ = nullptr;
  std::unique_ptr<slim::cluster::ShardedCluster> cluster_;
  bool fresh_ = false;
};

// ---------------------------------------------------------------------
// Trace analysis and replay probes.

struct SpanTotals {
  double wall_s = 0;
  double covered_s = 0;  // Part of the wall covered by OSS child spans.
  double cpu_s = 0;
};

struct TraceTotals {
  std::map<std::string, SpanTotals> by_call;
  std::array<double, slim::obs::kOssOpCount> busy_s{};
  double wall_s = 0;
  double covered_s = 0;
};

/// Attributes every OSS span to the public call whose interval holds its
/// start, and measures the part of each call its children cover. Calls
/// come from one thread and never overlap; children may (prefetch and
/// wave threads), so coverage is the union of their intervals.
TraceTotals AnalyzeTrace(const std::vector<CallSpan>& calls,
                         std::vector<OpSpan> spans) {
  TraceTotals t;
  std::sort(spans.begin(), spans.end(), [](const OpSpan& a, const OpSpan& b) {
    return a.start_ns < b.start_ns;
  });
  size_t j = 0;
  for (const CallSpan& c : calls) {
    while (j < spans.size() && spans[j].start_ns < c.start_ns) ++j;
    uint64_t covered = 0, run_start = 0, run_end = 0;
    for (; j < spans.size() && spans[j].start_ns < c.end_ns; ++j) {
      const OpSpan& s = spans[j];
      uint64_t end = std::min(s.end_ns, c.end_ns);
      t.busy_s[static_cast<size_t>(s.op)] += Seconds(s.start_ns, s.end_ns);
      if (s.start_ns > run_end) {
        covered += run_end - run_start;
        run_start = s.start_ns;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    covered += run_end - run_start;
    SpanTotals& agg = t.by_call[c.name];
    double wall = Seconds(c.start_ns, c.end_ns);
    agg.wall_s += wall;
    agg.covered_s += static_cast<double>(covered) * 1e-9;
    agg.cpu_s += c.cpu_s;
    t.wall_s += wall;
    t.covered_s += static_cast<double>(covered) * 1e-9;
  }
  return t;
}

/// Keeps the replay probes' results observable so they are not optimized
/// away.
std::atomic<uint64_t> g_replay_sink{0};

/// Median MiB/s of five repetitions of `fn` over `bytes` bytes.
double ReplayMiBps(uint64_t bytes, const std::function<void()>& fn) {
  if (bytes == 0) return 0.0;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t t0 = NowNanos();
    fn();
    rates.push_back(static_cast<double>(bytes) / kMiB /
                    Seconds(t0, NowNanos()));
  }
  return Median(rates);
}

struct Replay {
  double chunking = 0, sha1 = 0, crc32c = 0, decode = 0;
};

/// Whole container payload objects (with their checksum footer) of a
/// store, up to a fixed byte budget. Read straight from the backend,
/// outside every timed call, after VerifyRepository has fetched them all
/// through the meter.
std::vector<std::string> ContainerObjects(slim::oss::ObjectStore* store) {
  constexpr uint64_t kBudgetBytes = 48ull << 20;
  std::vector<std::string> out;
  auto keys = store->List("");
  if (!keys.ok()) return out;
  uint64_t total = 0;
  for (const std::string& key : keys.value()) {
    // Container payloads are stored under "<prefix>/data-<id>".
    if (key.find("/data-") == std::string::npos) continue;
    auto object = store->Get(key);
    if (!object.ok()) continue;
    if (total + object.value().size() > kBudgetBytes) break;
    total += object.value().size();
    out.push_back(std::move(object).value());
  }
  return out;
}

/// Times the public layer entry points over this run's own bytes: the
/// generated versions (chunking, SHA-1) and the store's container
/// objects (CRC32C, container decode). Returns false if a container
/// object fails its checksum or does not decode.
bool RunReplays(const std::vector<const std::string*>& inputs,
                const std::vector<std::string>& containers, Replay* out) {
  constexpr uint64_t kInputBudget = 16ull << 20;
  std::vector<std::string_view> sample;
  uint64_t sample_bytes = 0;
  for (const std::string* s : inputs) {
    if (sample_bytes >= kInputBudget) break;
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(s->size(), kInputBudget - sample_bytes));
    sample.emplace_back(s->data(), take);
    sample_bytes += take;
  }
  slim::lnode::BackupOptions backup;
  auto chunker =
      slim::chunking::CreateChunker(backup.chunker_type, backup.chunker_params);
  std::vector<std::vector<slim::chunking::RawChunk>> cuts(sample.size());
  out->chunking = ReplayMiBps(sample_bytes, [&] {
    for (size_t i = 0; i < sample.size(); ++i) {
      cuts[i] = slim::chunking::ChunkAll(*chunker, sample[i]);
    }
  });
  uint64_t sink = 0;
  out->sha1 = ReplayMiBps(sample_bytes, [&] {
    for (size_t i = 0; i < sample.size(); ++i) {
      for (const auto& c : cuts[i]) {
        sink += slim::Sha1::Hash(sample[i].data() + c.offset, c.size)
                    .Prefix64();
      }
    }
  });
  uint64_t container_bytes = 0;
  for (const auto& c : containers) container_bytes += c.size();
  bool ok = true;
  out->crc32c = ReplayMiBps(container_bytes, [&] {
    for (const auto& c : containers) {
      ok = ok && slim::durability::HasValidFooter(c);
    }
  });
  out->decode = ReplayMiBps(container_bytes, [&] {
    for (const auto& c : containers) {
      slim::format::ContainerMeta meta;
      std::string payload;
      std::string_view body(c.data(), c.size() - slim::durability::kFooterSize);
      ok = ok &&
           slim::format::DecodeContainerPayload(body, &meta, &payload).ok();
      sink += payload.size();
    }
  });
  g_replay_sink.store(sink, std::memory_order_relaxed);
  return ok;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sdb-backup") return std::make_unique<SdbBackup>();
  if (name == "sdb-restore") return std::make_unique<SdbRestore>();
  if (name == "rdata-lifecycle") return std::make_unique<RdataLifecycle>();
  if (name == "cluster-mixed") return std::make_unique<ClusterMixed>();
  return nullptr;
}

/// Latency at percentile p of one pass's operations, failed ones
/// ranked slower than every success. If the rank falls on a failure the
/// slowest success is reported.
double RankedPercentile(const OpTotals& t, double p) {
  if (t.latencies_s.empty()) return 0.0;
  std::vector<double> v = t.latencies_s;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(t.attempted)));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Timing metrics of one kind of operation. Each is computed within a
/// pass (or within a set-up, for operations only set-up runs) and
/// reported as the median over those, so a host that is slow for part of
/// a run moves the figure less.
void AddOpMetrics(const char* op, OpTotals PassTotals::*which,
                  const Results& r, bool with_cpu,
                  std::vector<Metric>* out) {
  std::vector<double> mbps, cpu, p50, tail;
  double tail_p = 0;
  size_t per_pass = 0;
  for (const PassTotals& pass : r.passes) {
    const OpTotals& t = pass.*which;
    if (t.attempted == 0) continue;
    double mib = static_cast<double>(t.bytes) / kMiB;
    mbps.push_back(Ratio(mib, t.wall_s));
    cpu.push_back(Ratio(t.cpu_s, mib / 1024.0));
    tail_p = TailPercentileFor(t.attempted);
    per_pass = t.attempted;
    p50.push_back(RankedPercentile(t, 50.0) * 1e3);
    tail.push_back(RankedPercentile(t, tail_p) * 1e3);
  }
  std::string base(op);
  out->push_back({base + "_mbps", Median(mbps), "MiB/s"});
  out->push_back({base + "_p50_ms", Median(p50), "ms"});
  out->push_back({base + "_tail_ms", Median(tail), "ms"});
  if (with_cpu) out->push_back({base + "_cpu_s_per_gib", Median(cpu), "s/GiB"});
  std::printf("# %s_tail_ms is p%g within each pass (%zu ops per pass), "
              "median over %zu passes\n# %s_mbps per pass:",
              op, tail_p, per_pass, tail.size(), op);
  for (double v : mbps) std::printf(" %.2f", v);
  std::printf("\n");
}

void PrintCounts(const Args& args, const Workload& w, const Results& r,
                 size_t passes) {
  std::printf("counts {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"passes\": %zu, \"input_digest\": \"%s\", \"oss\": {",
              args.workload.c_str(), args.seed, passes,
              w.InputDigest().c_str());
  for (int i = 0; i < slim::obs::kOssOpCount; ++i) {
    std::printf("%s\"%s\": [%" PRIu64 ", %" PRIu64 "]", i == 0 ? "" : ", ",
                slim::obs::OssOpName(static_cast<OssOp>(i)), r.oss.count[i],
                r.oss.bytes[i]);
  }
  std::printf("}, \"oss_errors\": %" PRIu64 ", \"picodollars\": %" PRIu64
              ", \"work_bytes\": %" PRIu64
              ", \"stored_bytes_per_logical_byte\": %.17g, "
              "\"oss_usd_per_gib\": %.17g}\n",
              r.oss.errors, r.oss.picodollars, r.work_bytes,
              w.stored_per_logical,
              Ratio(static_cast<double>(r.oss.picodollars) * 1e-12,
                    static_cast<double>(r.work_bytes) / kGiB));
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------
// Driver.

class Runner {
 public:
  explicit Runner(Args args) : env_(std::move(args)) {}

  int Run() {
    const Args& args = env_.args();
    if (MakeWorkload(args.workload) == nullptr) {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    return args.trace ? RunTraced() : RunEndToEnd();
  }

 private:
  /// Builds the workload `reps` times and keeps the last one. Set-up
  /// time is the median.
  double Setup(int reps, Results* into) {
    std::vector<double> walls;
    env_.set_results(into);
    env_.set_tracing(false);
    env_.set_counting_off(true);
    for (int i = 0; i < reps; ++i) {
      workload_.reset();
      env_.BeginPass(/*setup=*/true);
      uint64_t t0 = NowNanos();
      workload_ = MakeWorkload(env_.args().workload);
      if (workload_->single_client()) cpu_turns_.Pin(turn_++);
      workload_->Setup(env_);
      cpu_turns_.Release();
      walls.push_back(Seconds(t0, NowNanos()));
    }
    env_.set_counting_off(false);
    return Median(walls);
  }

  /// Runs the passes that take about `budget_s` on the reference host,
  /// at least `min_passes`. Returns the passes run.
  size_t Passes(Results* into, bool tracing, double budget_s,
                size_t min_passes) {
    env_.set_results(into);
    env_.set_tracing(tracing);
    workload_->meter()->set_tracing(tracing);
    auto sized = std::llround(budget_s / workload_->pass_seconds());
    size_t passes = std::max(min_passes, static_cast<size_t>(sized));
    for (size_t i = 0; i < passes; ++i) {
      env_.BeginPass(/*setup=*/false);
      uint64_t t0 = NowNanos();
      if (workload_->single_client()) cpu_turns_.Pin(turn_++);
      workload_->RunPass(env_, next_pass_++);
      cpu_turns_.Release();
      env_.EndPass(workload_->meter());
      into->pass().whole_s = Seconds(t0, NowNanos());
    }
    workload_->meter()->set_tracing(false);
    env_.set_tracing(false);
    return passes;
  }

  void ReportMessages(const std::vector<const Results*>& all) {
    for (const Results* r : all) {
      for (const auto& m : r->messages) std::fprintf(stderr, "%s\n", m.c_str());
    }
  }

  int RunEndToEnd() {
    Results r;
    int reps = MakeWorkload(env_.args().workload)->setup_reps();
    double setup_s = Setup(reps, &r);
    size_t passes = Passes(&r, false, env_.args().seconds,
                           workload_->min_passes());
    PrintCounts(env_.args(), *workload_, r, passes);
    ReportMessages({&r});
    std::printf("# timed / whole seconds per pass:");
    for (const PassTotals& p : r.passes) {
      if (!p.setup) std::printf(" %.3f/%.3f", p.wall_s, p.whole_s);
    }
    std::printf("\n");

    double work_gib = static_cast<double>(r.work_bytes) / kGiB;
    std::vector<Metric> m;
    m.push_back({"setup_s", setup_s, "s"});
    AddOpMetrics("backup", &PassTotals::backup, r, true, &m);
    AddOpMetrics("restore", &PassTotals::restore, r, false, &m);
    m.push_back({"stored_bytes_per_logical_byte",
                 workload_->stored_per_logical, "ratio"});
    m.push_back({"oss_requests_per_gib",
                 Ratio(static_cast<double>(r.oss.requests()), work_gib),
                 "req/GiB"});
    m.push_back({"oss_usd_per_gib",
                 Ratio(static_cast<double>(r.oss.picodollars) * 1e-12,
                       work_gib),
                 "USD/GiB"});
    m.push_back({"peak_rss_mib", PeakRssMiB(), "MiB"});
    workload_.reset();
    PrintResult(r.incorrect == 0, r.attempted, r.failed, m);
    return 0;
  }

  int RunTraced() {
    Results untraced, traced;
    Setup(1, &untraced);
    double half = env_.args().seconds / 2.0;
    Passes(&untraced, false, half, 1);
    size_t passes = Passes(&traced, true, half, 1);

    // Per-pass analysis covers the passes only; verification comes after.
    TraceTotals t = AnalyzeTrace(traced.calls, traced.oss_spans);
    size_t pass_calls = traced.calls.size();
    env_.set_results(&traced);
    env_.BeginPass(/*setup=*/true);  // Not a measured pass.
    env_.set_tracing(true);
    env_.set_counting_off(true);
    workload_->meter()->set_tracing(true);
    auto [problems, redirected] = workload_->Verify(env_);
    double verify_s = 0;
    for (size_t i = pass_calls; i < traced.calls.size(); ++i) {
      verify_s += Seconds(traced.calls[i].start_ns, traced.calls[i].end_ns);
    }
    workload_->meter()->set_tracing(false);
    Replay replay;
    bool replay_ok =
        RunReplays(workload_->SampleInputs(),
                   ContainerObjects(&workload_->backend()->base), &replay);
    if (!replay_ok) traced.Wrong("container object failed CRC or decode");
    ReportMessages({&untraced, &traced});

    const double P = static_cast<double>(passes);
    const LayerStats& L = traced.layers;
    // sdb-restore runs its one G-node cycle in set-up.
    const LayerStats& G = L.gnode_cycles > 0 ? L : untraced.layers;
    const double G_per = L.gnode_cycles > 0 ? P : 1.0;
    auto per_pass = [&](double v) { return v / P; };
    auto ms = [&](uint64_t ns) { return static_cast<double>(ns) * 1e-6 / P; };
    auto self_ms = [&](const char* call) {
      auto it = t.by_call.find(call);
      if (it == t.by_call.end()) return 0.0;
      return (it->second.wall_s - it->second.covered_s) * 1e3 / P;
    };
    auto cpu_ms = [&](const char* call) {
      auto it = t.by_call.find(call);
      return it == t.by_call.end() ? 0.0 : it->second.cpu_s * 1e3 / P;
    };
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    auto busy_ms = [&](std::initializer_list<OssOp> ops) {
      double s = 0;
      for (OssOp op : ops) s += t.busy_s[static_cast<size_t>(op)];
      return s * 1e3 / P;
    };
    const OssCounts& o = traced.oss;
    auto count = [&](std::initializer_list<OssOp> ops) {
      uint64_t c = 0;
      for (OssOp op : ops) c += o.count[static_cast<size_t>(op)];
      return per_pass(d(c));
    };
    auto bytes = [&](OssOp op) {
      return per_pass(d(o.bytes[static_cast<size_t>(op)]));
    };

    std::vector<Metric> m = {
        // chunking
        {"lnode.backup.chunking_ms", ms(L.chunking_ns), "ms"},
        {"lnode.backup.skip_hit_ratio",
         Ratio(d(L.skip_successes), d(L.skip_successes + L.skip_failures)),
         "ratio"},
        {"lnode.backup.mean_chunk_bytes",
         Ratio(d(L.backup_logical), d(L.backup_chunks)), "bytes"},
        {"chunking.replay_mbps", replay.chunking, "MiB/s"},
        // common (SHA-1)
        {"lnode.backup.fingerprint_ms", ms(L.fingerprint_ns), "ms"},
        {"common.sha1_replay_mbps", replay.sha1, "MiB/s"},
        // index
        {"lnode.backup.index_ms", ms(L.index_ns), "ms"},
        {"lnode.backup.segments_fetched", per_pass(d(L.segments_fetched)),
         "count"},
        {"lnode.backup.dedup_ratio",
         Ratio(d(L.backup_dup), d(L.backup_logical)), "ratio"},
        {"lnode.restore.redirects", per_pass(d(L.redirects)), "count"},
        // format + durability
        {"durability.crc32c_replay_mbps", replay.crc32c, "MiB/s"},
        {"format.container_decode_replay_mbps", replay.decode, "MiB/s"},
        {"lnode.restore.self_ms", self_ms("Restore"), "ms"},
        // oss
        {"oss.put.count", count({OssOp::kPut}), "count"},
        {"oss.get.count", count({OssOp::kGet}), "count"},
        {"oss.getrange.count", count({OssOp::kGetRange}), "count"},
        {"oss.delete.count", count({OssOp::kDelete}), "count"},
        {"oss.meta.count",
         count({OssOp::kList, OssOp::kExists, OssOp::kSize}), "count"},
        {"oss.put.bytes", bytes(OssOp::kPut), "bytes"},
        {"oss.get.bytes", bytes(OssOp::kGet), "bytes"},
        {"oss.getrange.bytes", bytes(OssOp::kGetRange), "bytes"},
        {"oss.put.busy_ms", busy_ms({OssOp::kPut}), "ms"},
        {"oss.get.busy_ms", busy_ms({OssOp::kGet}), "ms"},
        {"oss.getrange.busy_ms", busy_ms({OssOp::kGetRange}), "ms"},
        {"oss.meta.busy_ms",
         busy_ms({OssOp::kList, OssOp::kExists, OssOp::kSize}), "ms"},
        {"oss.errors", per_pass(d(o.errors)), "count"},
        // lnode (restore)
        {"lnode.restore.containers_per_100mb",
         Ratio(d(L.containers_fetched) * 100.0 * kMiB, d(L.restore_logical)),
         "count"},
        {"lnode.restore.read_amplification",
         Ratio(d(L.bytes_fetched), d(L.restore_logical)), "ratio"},
        {"lnode.restore.cache_hit_ratio",
         Ratio(d(L.cache_hits), d(L.chunks_restored)), "ratio"},
        {"lnode.restore.disk_spills", per_pass(d(L.disk_spills)), "count"},
        {"lnode.restore.cpu_ms", cpu_ms("Restore"), "ms"},
        // lnode (backup)
        {"lnode.backup.self_ms", self_ms("Backup"), "ms"},
        {"lnode.backup.other_ms", ms(L.other_ns), "ms"},
        {"lnode.backup.cpu_ms", cpu_ms("Backup"), "ms"},
        // gnode
        {"gnode.cycle.self_ms", self_ms("RunGNodeCycle"), "ms"},
        {"gnode.cycle.cpu_ms", cpu_ms("RunGNodeCycle"), "ms"},
        {"gnode.scc.containers_processed",
         d(G.scc.sparse_containers_processed) / G_per, "count"},
        {"gnode.scc.bytes_moved", d(G.scc.bytes_moved) / G_per, "bytes"},
        {"gnode.rd.duplicates_found", d(G.rd.duplicates_found) / G_per,
         "count"},
        {"gnode.rd.bloom_negative_ratio",
         Ratio(d(G.rd.bloom_negatives), d(G.rd.chunks_filtered)), "ratio"},
        {"gnode.rd.bytes_reclaimed", d(G.rd.bytes_reclaimed) / G_per,
         "bytes"},
        {"gnode.gc.containers_deleted", per_pass(d(L.gc_containers_deleted)),
         "count"},
        {"gnode.gc.bytes_reclaimed", per_pass(d(L.gc_bytes_reclaimed)),
         "bytes"},
        // core
        {"core.verify.problems", d(problems), "count"},
        {"core.verify.redirected_chunks", d(redirected), "count"},
        {"core.verify.ms", verify_s * 1e3, "ms"},
        // cluster
        {"cluster.jain_fairness", JainOfTenants(traced.tenant_latency_s),
         "ratio"},
        {"cluster.max_in_flight", d(traced.max_in_flight), "count"},
    };
    for (const char* tenant : ClusterMixed::kTenants) {
      auto it = traced.tenant_latency_s.find(tenant);
      m.push_back({std::string("cluster.tenant_p50_ms.") + tenant,
                   it == traced.tenant_latency_s.end()
                       ? 0.0
                       : Median(it->second) * 1e3,
                   "ms"});
    }
    uint64_t attempted = untraced.attempted + traced.attempted;
    uint64_t failed = untraced.failed + traced.failed;
    m.push_back({"trace.coverage", Ratio(t.covered_s, t.wall_s), "ratio"});
    m.push_back({"trace.unattributed_ms",
                 (t.wall_s - t.covered_s) * 1e3 / P, "ms"});
    m.push_back({"trace.overhead",
                 Ratio(Median(traced.PassWalls()),
                       Median(untraced.PassWalls())) -
                     1.0,
                 "ratio"});
    // End-to-end figures that only some workloads produce, taken from the
    // untraced passes (and set-up).
    m.push_back({"gnode_cycle_s", Median(untraced.gnode_s), "s"});
    m.push_back({"gc_p50_ms", Median(untraced.gc_s) * 1e3, "ms"});
    m.push_back({"failed_op_ratio", Ratio(d(failed), d(attempted)), "ratio"});
    workload_.reset();
    PrintResult(untraced.incorrect + traced.incorrect == 0, attempted, failed,
                m);
    return 0;
  }

  /// The program's fairness definition (cluster/sharded_cluster.cc):
  /// Jain's index over per-tenant mean job latency; 0 without tenants.
  static double JainOfTenants(
      const std::map<std::string, std::vector<double>>& by_tenant) {
    double sum = 0, sum_sq = 0;
    size_t n = 0;
    for (const auto& [tenant, lat] : by_tenant) {
      if (lat.empty()) continue;
      double mean = 0;
      for (double v : lat) mean += v;
      mean /= static_cast<double>(lat.size());
      sum += mean;
      sum_sq += mean * mean;
      ++n;
    }
    return n == 0 ? 0.0 : Ratio(sum * sum, static_cast<double>(n) * sum_sq);
  }

  Env env_;
  std::unique_ptr<Workload> workload_;
  size_t next_pass_ = 0;
  CpuTurns cpu_turns_;
  size_t turn_ = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: slimbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  // Keep freed memory in the process for reuse. Every set-up and pass
  // frees and allocates hundreds of MiB; returned to the kernel, it comes
  // back through page faults whose cost on a virtual machine varies
  // (rdata-lifecycle setup_s over five seeds: 0.068-0.095 s without
  // this, 0.042-0.044 s with it).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // The largest glibc accepts.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return perfbench::Runner(std::move(args)).Run();
}
