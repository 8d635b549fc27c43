//===- target/ExecutableCache.cpp - Shared compiled artifacts -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "target/ExecutableCache.h"

#include "support/ModuleHash.h"

using namespace spvfuzz;

size_t ExecutableCache::KeyHasher::operator()(const Key &K) const {
  return static_cast<size_t>(StructuralHasher::mix(
      K.ArtifactId ^ (static_cast<uint64_t>(K.Engine) << 56)));
}

std::shared_ptr<const TargetArtifact>
ExecutableCache::getOrCompile(const Target &T, const Module &M,
                              ExecEngine Engine, uint64_t ModuleHash) {
  Key K{T.artifactId(ModuleHash), Engine};
  std::shared_ptr<const TargetArtifact> Cached;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(K);
    if (It != Index.end()) {
      ++Hits;
      Lru.splice(Lru.begin(), Lru, It->second);
      Cached = It->second->Art;
    } else {
      ++Misses;
    }
  }
  if (Cached) {
    // Replay outside the lock; the registry locks internally.
    T.replayCompileMetrics(*Cached);
    return Cached;
  }

  // Compile outside the lock: pipelines are the expensive part and the
  // artifact is deterministic, so a racing duplicate compile is wasted
  // work, not wrong results.
  std::shared_ptr<const TargetArtifact> Art = T.compile(M, Engine, ModuleHash);

  const size_t Bytes = Art->approxBytes();
  if (Bytes > BudgetBytes)
    return Art; // covers the budget-0 "cache disabled" case

  std::lock_guard<std::mutex> Lock(Mutex);
  if (Index.count(K))
    return Art; // racing insert of the same (deterministic) artifact
  while (BytesUsed + Bytes > BudgetBytes && !Lru.empty()) {
    BytesUsed -= Lru.back().Bytes;
    Index.erase(Lru.back().K);
    Lru.pop_back();
    ++Evictions;
  }
  Lru.push_front(Entry{K, Art, Bytes});
  Index.emplace(K, Lru.begin());
  BytesUsed += Bytes;
  return Art;
}

size_t ExecutableCache::bytesUsed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return BytesUsed;
}

size_t ExecutableCache::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}

uint64_t ExecutableCache::hitCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

uint64_t ExecutableCache::missCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

uint64_t ExecutableCache::evictionCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Evictions;
}
