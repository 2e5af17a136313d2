/**
 * @file
 * A 64-bit hash of every simulated observable in a RunMetrics: two
 * runs with the same fingerprint produced the same simulated results.
 * Host-side counters (pre-scan, decode memo) are excluded, so host-only
 * changes must leave it unchanged.
 */

#ifndef CREV_PERFBENCH_FINGERPRINT_H_
#define CREV_PERFBENCH_FINGERPRINT_H_

#include <string>

#include "core/metrics.h"

namespace perfbench {

/** 16 hex digits. */
std::string fingerprint(const crev::core::RunMetrics &m);

} // namespace perfbench

#endif // CREV_PERFBENCH_FINGERPRINT_H_
