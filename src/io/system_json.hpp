// Versioned JSON serialization of System models and AnalysisResults.
//
// Wire format (schema_version 1; docs/api.md has the full field reference):
//
//   {
//     "schema_version": 1,
//     "processors": [{"scheduler": "SPP"}, {"scheduler": "FCFS"}],
//     "jobs": [
//       {"id": 1, "name": "control", "deadline": 3,
//        "chain": [{"processor": 0, "exec": 0.4, "priority": 1}],
//        "arrivals": [0, 4, 8]}
//     ]
//   }
//
// Arrival sequences are written as explicit release instants, mirroring
// to_system_text(): the model does not retain generator parameters, so the
// *semantics* round-trip exactly. Numbers are the bytes of C-locale printf
// %g at precision 17, via std::to_chars, and parsing is locale-free, so
// doubles survive save -> load bit-identically and JSON and text
// round-trips agree (tests/test_system_json.cpp). Unlike the text format,
// stable Job::ids are carried, so delta-based services
// (service/AdmissionSession) can address jobs across a save/load boundary.
//
// AnalysisResult uses the same envelope ("schema_version", then the result
// fields). Unbounded times serialize as the string "inf" (JSON has no
// Infinity literal). Retained per-subjob curves are NOT serialized -- only
// bounds and verdicts; load_result_json() reports curves as absent.
//
// Parsers never throw and reject unknown schema_versions with an error that
// names the supported version.
#pragma once

#include <string>

#include "analysis/result.hpp"
#include "io/json.hpp"
#include "io/system_text.hpp"  // ParsedSystem
#include "model/system.hpp"

namespace rta {

/// The schema_version both serializers write and the parsers accept.
inline constexpr int kSystemJsonSchemaVersion = 1;

/// JSON encoding of a possibly-unbounded time: unbounded times have no JSON
/// literal, so they travel as the string "inf".
[[nodiscard]] json::Value time_value(Time t);

/// Serialize a system (pretty-printed; stable field order).
[[nodiscard]] std::string to_system_json(const System& system);

/// Parse a system from JSON text; validates like parse_system_text.
[[nodiscard]] ParsedSystem parse_system_json(const std::string& text);

/// Parse one job object ({"name", "deadline", "chain", "arrivals"[, "id"]}).
/// Used by the system parser and by the admission service's request stream.
/// `saw_priority` (optional) reports whether any hop carried an explicit
/// "priority" member -- the service assigns lowest priorities when none did.
[[nodiscard]] bool parse_job_json(const json::Value& value, Job& out,
                                  std::string& error,
                                  bool* saw_priority = nullptr);

/// Serialize one job as the object parse_job_json accepts.
[[nodiscard]] json::Value job_to_json(const Job& job);

/// Load a system from a .json file; error mentions the path on failure.
[[nodiscard]] ParsedSystem load_system_json_file(const std::string& path);

/// Save a system as pretty-printed JSON; false on I/O failure.
bool save_system_json_file(const System& system, const std::string& path);

/// Serialize an analysis result. `compact` emits a one-liner (the service's
/// JSONL responses); otherwise pretty-printed.
[[nodiscard]] std::string to_result_json(const AnalysisResult& result,
                                         bool compact = false);

/// Outcome of parsing a serialized AnalysisResult.
struct ParsedResult {
  bool ok = false;    ///< parse succeeded (the result itself may have !ok)
  std::string error;  ///< parse diagnostic when !ok
  AnalysisResult result;
};

/// Parse an analysis result (inverse of to_result_json, minus curves).
[[nodiscard]] ParsedResult parse_result_json(const std::string& text);

}  // namespace rta
