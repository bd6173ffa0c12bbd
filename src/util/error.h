// Error handling primitives shared by every dpz module.
//
// Following the C++ Core Guidelines (E.2, E.14) we report errors that the
// immediate caller cannot handle by throwing exceptions derived from a
// single library-wide base type, so applications can catch `dpz::Error`
// at their fault boundary. Every exception carries a StatusCode so fault
// boundaries (the C API, the fuzz harness) can classify failures without
// a catch cascade.
//
// Two recoverability classes matter for untrusted input:
//
//  * FormatError (StatusCode::kFormat) — the *data* is malformed. Every
//    byte that originates in an archive must fail through this path; it is
//    a recoverable status, not a bug, and decoders are required to reach
//    it instead of undefined behavior, aborts, or unbounded allocation.
//  * InvalidArgument (StatusCode::kInvalidArgument) — the *caller* broke a
//    documented precondition. DPZ_REQUIRE exists for these programming
//    contracts only; it must never guard archive-derived values (the
//    custom lint in tools/lint.sh enforces this for the byte/bit readers).
#pragma once

#include <stdexcept>
#include <string>

namespace dpz {

/// Machine-readable classification of a dpz failure. Mirrors the C API's
/// DPZ_ERR_* values (dpz_c.h) so status codes survive the C boundary.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kFormat = 2,
  kInternal = 3,
  kIo = 4,
  kNumerical = 5,
  /// A stored CRC32C did not match the archive bytes (format v2). A
  /// refinement of kFormat: the framing parsed, but the content is
  /// provably corrupted. ChecksumError derives from FormatError, so
  /// fault boundaries that catch FormatError handle both.
  kChecksum = 6,
  /// Not an exception code: a best-effort decode completed but lost
  /// frames (see core/chunked.h DecodeReport and the C API DPZ_PARTIAL).
  kPartial = 7,
  /// A resource budget was exceeded: a memory charge or pre-flight decode
  /// admission check did not fit ResourceLimits::max_memory_bytes, or the
  /// process ran out of memory (std::bad_alloc at a fault boundary). See
  /// util/resource.h and docs/ROBUSTNESS.md.
  kResourceExhausted = 8,
  /// The operation's ResourceLimits deadline passed before it finished.
  /// The partial work is discarded; inputs are never modified.
  kDeadlineExceeded = 9,
  /// The operation's CancelToken was triggered. Like kDeadlineExceeded,
  /// this is a clean abort: no output is produced, nothing leaks.
  kCancelled = 10,
};

/// Human-readable name of a status code ("ok", "format", ...).
constexpr const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kFormat: return "format";
    case StatusCode::kIo: return "io";
    case StatusCode::kNumerical: return "numerical";
    case StatusCode::kChecksum: return "checksum";
    case StatusCode::kPartial: return "partial";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kInternal: break;
  }
  return "internal";
}

/// Base class of every exception thrown by the dpz library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 StatusCode code = StatusCode::kInternal)
      : std::runtime_error(what), code_(code) {}

  /// Classification of this failure (stable across the C boundary).
  [[nodiscard]] StatusCode code() const noexcept { return code_; }

 private:
  StatusCode code_;
};

/// A caller violated a documented precondition (bad size, bad parameter...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what)
      : Error(what, StatusCode::kInvalidArgument) {}
};

/// An I/O operation (file read/write) failed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what)
      : Error(what, StatusCode::kIo) {}
};

/// A compressed archive is malformed, truncated, or version-incompatible.
/// This is the required failure mode for every archive-driven defect: a
/// decoder given adversarial bytes must throw FormatError (recoverable)
/// rather than crash, read out of bounds, or allocate unboundedly.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what)
      : Error(what, StatusCode::kFormat) {}

 protected:
  /// For subclasses that refine the classification (ChecksumError).
  FormatError(const std::string& what, StatusCode code)
      : Error(what, code) {}
};

/// A v2 archive section failed its CRC32C check. Thrown *before* the
/// damaged payload reaches zlib or any allocation sized from it, and
/// catchable as FormatError at every existing fault boundary.
class ChecksumError : public FormatError {
 public:
  explicit ChecksumError(const std::string& what)
      : FormatError(what, StatusCode::kChecksum) {}
};

/// A numerical routine failed to converge or hit an ill-conditioned input.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what)
      : Error(what, StatusCode::kNumerical) {}
};

/// A memory charge or pre-flight admission check exceeded the operation's
/// ResourceLimits::max_memory_bytes budget (util/resource.h). Recoverable:
/// the operation aborted cleanly before (or while) allocating, and retrying
/// with a larger budget — or rejecting the request — are both sound.
class ResourceExhausted : public Error {
 public:
  explicit ResourceExhausted(const std::string& what)
      : Error(what, StatusCode::kResourceExhausted) {}
};

/// The operation ran past its ResourceLimits deadline and aborted at the
/// next cooperative checkpoint. Partial work is discarded.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : Error(what, StatusCode::kDeadlineExceeded) {}
};

/// The operation's CancelToken fired and the pipeline aborted at the next
/// cooperative checkpoint. Partial work is discarded.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what)
      : Error(what, StatusCode::kCancelled) {}
};

}  // namespace dpz

/// Precondition check: throws dpz::InvalidArgument(msg) when `cond` is
/// false. The message is the whole error text: the CLI prints it as the
/// usage error, so it names the broken contract in the caller's terms.
/// For programming contracts only — never for values read from an archive
/// (those must throw dpz::FormatError so callers can treat them as a
/// recoverable status).
#define DPZ_REQUIRE(cond, msg)                          \
  do {                                                  \
    if (!(cond)) throw ::dpz::InvalidArgument((msg));   \
  } while (0)
