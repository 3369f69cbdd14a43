// Error types shared by every pga module, and the finite, non-negative
// check that config constructors run on their numeric knobs.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

namespace pga::common {

/// Base class for all pga errors. Every module throws a subclass of this so
/// callers can catch the whole library with a single handler.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed input data (FASTA/FASTQ/tabular/DAX parsing failures).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error("parse error: " + what) {}
};

/// A caller violated a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what)
      : Error("invalid argument: " + what) {}
};

/// Filesystem-level failures (missing files, unwritable workspace).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error("i/o error: " + what) {}
};

/// A workflow-level failure (planning error, unsatisfiable catalog lookup,
/// exhausted retries).
class WorkflowError : public Error {
 public:
  explicit WorkflowError(const std::string& what)
      : Error("workflow error: " + what) {}
};

/// The discrete-event simulator gave up (runaway event budget exhausted).
/// Surfaced in RunReport::error instead of silently truncating a run.
class SimulationError : public Error {
 public:
  explicit SimulationError(const std::string& what)
      : Error("simulation error: " + what) {}
};

/// Throws InvalidArgument("<where>: <field> must be finite and >= 0")
/// unless `value` is both. Config constructors check their costs,
/// latencies and skews with it: a bare `value < 0` lets a NaN through.
inline void require_non_negative(const char* where, const char* field, double value) {
  if (!std::isfinite(value) || value < 0) {
    throw InvalidArgument(std::string(where) + ": " + field +
                          " must be finite and >= 0");
  }
}

}  // namespace pga::common
