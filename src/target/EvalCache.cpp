//===- target/EvalCache.cpp - Memoized target evaluations ------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "target/EvalCache.h"

#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

using namespace spvfuzz;

namespace {

size_t approxValueBytes(const Value &V) {
  size_t Bytes = sizeof(Value);
  for (const Value &Elem : V.Elements)
    Bytes += approxValueBytes(Elem);
  return Bytes;
}

size_t approxRunBytes(const TargetRun &Run) {
  size_t Bytes = sizeof(TargetRun) + Run.Signature.size() +
                 Run.Result.FaultMessage.size();
  for (const auto &[Location, V] : Run.Result.Outputs)
    Bytes += sizeof(Location) + approxValueBytes(V);
  return Bytes;
}

} // namespace

size_t EvalCache::KeyHasher::operator()(const Key &K) const {
  StructuralHasher H;
  H.word(K.ArtifactId);
  H.word(K.InputHash);
  return static_cast<size_t>(H.digest());
}

bool EvalCache::lookup(uint64_t ArtifactId, uint64_t InputHash,
                       TargetRun &Out) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Key K{ArtifactId, InputHash};
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(K);
  if (It == Index.end()) {
    ++Misses;
    if (Metrics.enabled())
      Metrics.add("evalcache.misses");
    return false;
  }
  ++Hits;
  if (Metrics.enabled())
    Metrics.add("evalcache.hits");
  Lru.splice(Lru.begin(), Lru, It->second);
  Out = It->second->Run;
  return true;
}

void EvalCache::insert(uint64_t ArtifactId, uint64_t InputHash,
                       const TargetRun &Run) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Key K{ArtifactId, InputHash};
  size_t Bytes = approxRunBytes(Run);
  if (Bytes > BudgetBytes)
    return; // covers the budget-0 "cache disabled" case
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Index.count(K))
    return; // racing insert of the same (deterministic) outcome
  while (BytesUsed + Bytes > BudgetBytes && !Lru.empty()) {
    size_t EvictedBytes = Lru.back().Bytes;
    BytesUsed -= EvictedBytes;
    Index.erase(Lru.back().K);
    Lru.pop_back();
    if (Metrics.enabled())
      Metrics.add("evalcache.evictions");
    if (telemetry::Tracer::global().enabled())
      telemetry::Tracer::global().event("evalcache.evict",
                                        {{"bytes", EvictedBytes}});
  }
  Lru.push_front(Entry{K, Run, Bytes});
  Index.emplace(std::move(K), Lru.begin());
  BytesUsed += Bytes;
  if (Metrics.enabled())
    Metrics.set("evalcache.bytes", static_cast<double>(BytesUsed));
}

size_t EvalCache::bytesUsed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return BytesUsed;
}

size_t EvalCache::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}

uint64_t EvalCache::hitCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

uint64_t EvalCache::missCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

TargetRun CachedTarget::run(const Module &M, const ShaderInput &Input) const {
  if (!Inner->spec().deterministic()) {
    // Memoizing a flaky target would freeze one sample as truth. This path
    // is a policy violation (the Harness owns faulty targets); the counter
    // is an alarm that CI asserts stays zero.
    telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
    if (Metrics.enabled())
      Metrics.add("evalcache.flaky_consults");
    return Inner->run(M, Input);
  }
  uint64_t MHash = hashModule(M);
  uint64_t AId = Inner->artifactId(MHash);
  uint64_t IHash = hashShaderInput(Input);
  TargetRun Cached;
  if (Cache->lookup(AId, IHash, Cached))
    return Cached;
  TargetRun Fresh = Inner->run(M, Input, MHash);
  Cache->insert(AId, IHash, Fresh);
  return Fresh;
}
