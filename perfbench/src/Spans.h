//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Spans are taken only in the benchmark's
/// own files, around calls into the libraries' public functions; the
/// libraries carry no benchmark tracing. Each span keeps (name, start,
/// end, parent) in memory; the file is written once, at exit. A layer's
/// self time is its spans' duration minus the part their children cover.
/// Single-threaded: the re-drive runs on one thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

class SpanRecorder {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int32_t Parent = -1;
  };

  SpanRecorder() : Origin(Clock::now()) {}
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  /// Opens a span as a child of the innermost open span.
  int32_t open(const std::string &Name) {
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.StartNs = now();
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Stack.back();
  }

  void close(int32_t Id) {
    Spans[static_cast<size_t>(Id)].EndNs = now();
    Stack.pop_back();
  }

  /// RAII span; a null recorder makes it free.
  class Scope {
  public:
    Scope(SpanRecorder *R, const std::string &Name)
        : R(R), Id(R ? R->open(Name) : -1) {}
    ~Scope() {
      if (R)
        R->close(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *R;
    int32_t Id;
  };

  /// Self seconds per span name: each span's duration minus its direct
  /// children's durations (children nest strictly on one thread).
  std::map<std::string, double> selfSeconds() const {
    std::vector<int64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] +=
          static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) *
          1e-9;
    return Out;
  }

  /// Durations (seconds) of every span named \p Name, in start order.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs) * 1e-9);
    return Out;
  }

  /// Writes one tab-separated line per span: id, parent, name, start_ns,
  /// end_ns. Returns false if the file cannot be written.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "id\tparent\tname\tstart_ns\tend_ns\n";
    for (size_t I = 0; I < Spans.size(); ++I)
      Out << I << '\t' << Spans[I].Parent << '\t' << Spans[I].Name << '\t'
          << Spans[I].StartNs << '\t' << Spans[I].EndNs << '\n';
    return static_cast<bool>(Out);
  }

  size_t size() const { return Spans.size(); }

private:
  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Origin)
        .count();
  }

  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
