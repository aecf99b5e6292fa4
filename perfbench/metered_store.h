// ObjectStore decorator owned by the benchmark: counts and prices every
// OSS operation and, when tracing, records each one as a timed span.
#ifndef SLIMSTORE_PERFBENCH_METERED_STORE_H_
#define SLIMSTORE_PERFBENCH_METERED_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/cost_model.h"
#include "oss/object_store.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
uint64_t NowNanos();

/// Totals of one stretch of OSS traffic, indexed by obs::OssOp.
struct OssCounts {
  std::array<uint64_t, slim::obs::kOssOpCount> count{};
  std::array<uint64_t, slim::obs::kOssOpCount> bytes{};
  uint64_t errors = 0;
  uint64_t picodollars = 0;

  uint64_t requests() const;
  OssCounts& operator+=(const OssCounts& rhs);
  OssCounts operator-(const OssCounts& rhs) const;
};

/// One OSS call as seen from outside the program.
struct OpSpan {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  slim::obs::OssOp op = slim::obs::OssOp::kGet;
};

class MeteredStore : public slim::oss::ObjectStore {
 public:
  /// `base` must outlive this object.
  explicit MeteredStore(slim::oss::ObjectStore* base);

  /// Turns span recording on or off. Not thread-safe against in-flight
  /// calls: switch only while the store is idle.
  void set_tracing(bool on) { tracing_ = on; }

  slim::Status Put(const std::string& key, std::string value) override;
  slim::Result<std::string> Get(const std::string& key) override;
  slim::Result<std::string> GetRange(const std::string& key, uint64_t offset,
                                     uint64_t len) override;
  slim::Status Delete(const std::string& key) override;
  slim::Result<bool> Exists(const std::string& key) override;
  slim::Result<uint64_t> Size(const std::string& key) override;
  slim::Result<std::vector<std::string>> List(
      const std::string& prefix) override;

  OssCounts Snapshot() const;

  /// Moves out the spans recorded since the last call.
  std::vector<OpSpan> TakeSpans();

 private:
  void Record(slim::obs::OssOp op, uint64_t bytes, bool ok,
              uint64_t start_ns);

  slim::oss::ObjectStore* base_;
  slim::obs::CostModel prices_;
  std::atomic<bool> tracing_{false};
  std::array<std::atomic<uint64_t>, slim::obs::kOssOpCount> count_{};
  std::array<std::atomic<uint64_t>, slim::obs::kOssOpCount> bytes_{};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> picodollars_{0};

  std::mutex mu_;  // Guards spans_.
  std::vector<OpSpan> spans_;
};

}  // namespace perfbench

#endif  // SLIMSTORE_PERFBENCH_METERED_STORE_H_
