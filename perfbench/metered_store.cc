#include "metered_store.h"

#include <chrono>
#include <utility>

namespace perfbench {

using slim::obs::OssOp;

namespace {

size_t Index(OssOp op) { return static_cast<size_t>(op); }

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t OssCounts::requests() const {
  uint64_t total = 0;
  for (uint64_t c : count) total += c;
  return total;
}

OssCounts& OssCounts::operator+=(const OssCounts& rhs) {
  for (size_t i = 0; i < count.size(); ++i) {
    count[i] += rhs.count[i];
    bytes[i] += rhs.bytes[i];
  }
  errors += rhs.errors;
  picodollars += rhs.picodollars;
  return *this;
}

OssCounts OssCounts::operator-(const OssCounts& rhs) const {
  OssCounts out;
  for (size_t i = 0; i < count.size(); ++i) {
    out.count[i] = count[i] - rhs.count[i];
    out.bytes[i] = bytes[i] - rhs.bytes[i];
  }
  out.errors = errors - rhs.errors;
  out.picodollars = picodollars - rhs.picodollars;
  return out;
}

MeteredStore::MeteredStore(slim::oss::ObjectStore* base) : base_(base) {}

void MeteredStore::Record(OssOp op, uint64_t bytes, bool ok,
                          uint64_t start_ns) {
  count_[Index(op)].fetch_add(1, std::memory_order_relaxed);
  bytes_[Index(op)].fetch_add(bytes, std::memory_order_relaxed);
  if (!ok) errors_.fetch_add(1, std::memory_order_relaxed);
  picodollars_.fetch_add(
      slim::obs::DollarsToPicodollars(prices_.OperationDollars(op, bytes)),
      std::memory_order_relaxed);
  if (start_ns != 0) {
    OpSpan span{start_ns, NowNanos(), op};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
}

slim::Status MeteredStore::Put(const std::string& key, std::string value) {
  uint64_t start = tracing_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  uint64_t size = value.size();
  slim::Status s = base_->Put(key, std::move(value));
  Record(OssOp::kPut, size, s.ok(), start);
  return s;
}

slim::Result<std::string> MeteredStore::Get(const std::string& key) {
  uint64_t start = tracing_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  auto r = base_->Get(key);
  Record(OssOp::kGet, r.ok() ? r.value().size() : 0, r.ok(), start);
  return r;
}

slim::Result<std::string> MeteredStore::GetRange(const std::string& key,
                                                 uint64_t offset,
                                                 uint64_t len) {
  uint64_t start = tracing_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  auto r = base_->GetRange(key, offset, len);
  Record(OssOp::kGetRange, r.ok() ? r.value().size() : 0, r.ok(), start);
  return r;
}

slim::Status MeteredStore::Delete(const std::string& key) {
  uint64_t start = tracing_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  slim::Status s = base_->Delete(key);
  Record(OssOp::kDelete, 0, s.ok(), start);
  return s;
}

slim::Result<bool> MeteredStore::Exists(const std::string& key) {
  uint64_t start = tracing_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  auto r = base_->Exists(key);
  Record(OssOp::kExists, 0, r.ok(), start);
  return r;
}

slim::Result<uint64_t> MeteredStore::Size(const std::string& key) {
  uint64_t start = tracing_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  auto r = base_->Size(key);
  Record(OssOp::kSize, 0, r.ok(), start);
  return r;
}

slim::Result<std::vector<std::string>> MeteredStore::List(
    const std::string& prefix) {
  uint64_t start = tracing_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  auto r = base_->List(prefix);
  Record(OssOp::kList, 0, r.ok(), start);
  return r;
}

OssCounts MeteredStore::Snapshot() const {
  OssCounts out;
  for (size_t i = 0; i < out.count.size(); ++i) {
    out.count[i] = count_[i].load(std::memory_order_relaxed);
    out.bytes[i] = bytes_[i].load(std::memory_order_relaxed);
  }
  out.errors = errors_.load(std::memory_order_relaxed);
  out.picodollars = picodollars_.load(std::memory_order_relaxed);
  return out;
}

std::vector<OpSpan> MeteredStore::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

}  // namespace perfbench
