//===- support/ModuleHash.h - Structural module hashing ---------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fast structural 64-bit hashing of modules and shader inputs, the key
/// ingredient of the evaluation cache (target/EvalCache.h): two modules
/// that hash equal are treated as the same compiler input, so every
/// hashed field must cover exactly the state a target run can observe.
///
/// The hash walks types/constants/globals in declaration order and each
/// function's blocks in their stored order — which the module invariant
/// keeps dominance-compatible (every block precedes the blocks it
/// dominates) — so structurally equal modules hash equal regardless of how
/// they were produced. Module::Bound is deliberately excluded: it only
/// influences fresh-id allocation, never compilation or execution.
///
/// Mixing uses the splitmix64 finalizer per word, so any single-word
/// change (an opcode, a result id, one operand) avalanches through the
/// digest.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_MODULEHASH_H
#define SUPPORT_MODULEHASH_H

#include <cstdint>
#include <optional>

namespace spvfuzz {

struct Module;
struct ShaderInput;

/// A streaming 64-bit hash over words. Deterministic across platforms and
/// runs (no per-process seeding): hashes are stable cache keys.
class StructuralHasher {
public:
  void word(uint64_t Word) {
    Digest = mix(Digest ^ mix(Word + ++Position));
  }

  uint64_t digest() const { return Digest; }

  /// splitmix64's finalizer: full-avalanche 64-bit mixing.
  static uint64_t mix(uint64_t X) {
    X += 0x9E3779B97F4A7C15ull;
    X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
    X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
    return X ^ (X >> 31);
  }

private:
  uint64_t Digest = 0x243F6A8885A308D3ull; // pi, for lack of opinions
  uint64_t Position = 0;
};

/// Structural hash of everything a target run observes: global
/// declarations, functions (definition, parameters, labels, bodies) and
/// the entry point. Excludes Module::Bound.
uint64_t hashModule(const Module &M);

/// \p Known when the caller already holds the module's hash, else
/// hashModule(M): lets one hash per evaluation travel down the target
/// layers. A supplied hash must equal hashModule(M); Debug builds assert
/// it.
uint64_t hashModuleOr(const Module &M, std::optional<uint64_t> Known);

/// Structural hash of a shader input (bindings in key order).
uint64_t hashShaderInput(const ShaderInput &Input);

} // namespace spvfuzz

#endif // SUPPORT_MODULEHASH_H
