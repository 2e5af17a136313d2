#include "trace/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace crev::trace {

namespace {

void
addSpan(PhaseStat &st, Cycles begin, Cycles end)
{
    const Cycles d = end - begin;
    ++st.spans;
    st.total_cycles += d;
    st.micros.add(cyclesToMicros(d));
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const auto u = static_cast<unsigned char>(ch);
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out;
}

std::string
chromeJson(const Tracer &tracer, const std::vector<ThreadInfo> &threads)
{
    std::string out;
    out += "{\n\"displayTimeUnit\": \"ms\",\n";
    out += "\"otherData\": {\"clock\": \"virtual-cycles\", "
           "\"ts_unit\": \"1 simulated cycle\"},\n";
    out += "\"traceEvents\": [\n";

    bool first = true;
    auto emit = [&](const char *fmt, auto... args) {
        char buf[512];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        if (!first)
            out += ",\n";
        first = false;
        out += buf;
    };

    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
         "\"tid\": 0, \"args\": {\"name\": \"phases\"}}");
    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"scheduler\"}}");

    std::vector<ThreadInfo> named = threads;
    std::sort(named.begin(), named.end(),
              [](const ThreadInfo &a, const ThreadInfo &b) {
                  return a.tid < b.tid;
              });
    for (const auto &ti : named)
        for (int pid = 0; pid <= 1; ++pid)
            emit("{\"name\": \"thread_name\", \"ph\": \"M\", "
                 "\"pid\": %d, \"tid\": %u, "
                 "\"args\": {\"name\": \"%s\"}}",
                 pid, ti.tid, jsonEscape(ti.name).c_str());

    for (unsigned tid = 0; tid < tracer.numThreads(); ++tid) {
        const TraceBuffer *b = tracer.buffer(tid);
        if (b == nullptr)
            continue;

        bool run_open = false;
        Cycles run_begin = 0;
        unsigned run_core = 0;
        // name -> stack of open begins (distinct span types nest; the
        // same type never self-overlaps on one thread).
        std::map<std::string, std::vector<Cycles>> open;
        Cycles max_ts = 0;

        auto x_span = [&](const char *cat, const std::string &name,
                          Cycles begin, Cycles end) {
            emit("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %" PRIu64 ", \"dur\": %" PRIu64
                 ", \"pid\": 0, \"tid\": %u}",
                 name.c_str(), cat, begin, end - begin, tid);
        };
        auto close_span = [&](const char *cat, const std::string &name,
                              Cycles end) {
            auto it = open.find(name);
            if (it == open.end() || it->second.empty())
                return; // begin lost to ring wrap
            x_span(cat, name, it->second.back(), end);
            it->second.pop_back();
        };

        b->forEach([&](const Event &e) {
            max_ts = std::max(max_ts, e.at);
            switch (e.type) {
              case EventType::kThreadRun:
                run_open = true;
                run_begin = e.at;
                run_core = e.core;
                break;
              case EventType::kThreadPark:
              case EventType::kThreadPreempt:
                if (run_open) {
                    emit("{\"name\": \"run\", \"cat\": \"sched\", "
                         "\"ph\": \"X\", \"ts\": %" PRIu64
                         ", \"dur\": %" PRIu64 ", \"pid\": 1, "
                         "\"tid\": %u, \"args\": {\"core\": %u}}",
                         run_begin, e.at - run_begin, tid, run_core);
                    run_open = false;
                }
                break;
              case EventType::kStwBegin:
                open["stw"].push_back(e.at);
                break;
              case EventType::kStwEnd:
                close_span("stw", "stw", e.at);
                break;
              case EventType::kPhaseBegin:
                open[phaseName(static_cast<Phase>(e.arg8))].push_back(
                    e.at);
                break;
              case EventType::kPhaseEnd:
                close_span("phase",
                           phaseName(static_cast<Phase>(e.arg8)), e.at);
                break;
              case EventType::kQuarantineBlock:
                open["quarantine_blocked"].push_back(e.at);
                break;
              case EventType::kQuarantineUnblock:
                close_span("alloc", "quarantine_blocked", e.at);
                break;
              case EventType::kTlbShootdown:
                emit("{\"name\": \"tlb_shootdown\", \"cat\": \"vm\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %" PRIu64
                     ", \"pid\": 0, \"tid\": %u, "
                     "\"args\": {\"page\": %" PRIu64 "}}",
                     e.at, tid, e.arg64);
                break;
              case EventType::kWatchdogEscalate:
                emit("{\"name\": \"watchdog_escalate\", "
                     "\"cat\": \"watchdog\", \"ph\": \"i\", "
                     "\"s\": \"t\", \"ts\": %" PRIu64 ", \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"rung\": %u}}",
                     e.at, tid, static_cast<unsigned>(e.arg8));
                break;
              case EventType::kFaultInject:
                emit("{\"name\": \"inject_%s\", \"cat\": \"chaos\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %" PRIu64
                     ", \"pid\": 0, \"tid\": %u}",
                     faultActionName(static_cast<FaultAction>(e.arg8)),
                     e.at, tid);
                break;
              case EventType::kRecoveryAttempt:
                emit("{\"name\": \"recover_%s\", \"cat\": "
                     "\"recovery\", \"ph\": \"i\", \"s\": \"t\", "
                     "\"ts\": %" PRIu64 ", \"pid\": 0, \"tid\": %u, "
                     "\"args\": {\"attempt\": %" PRIu64 "}}",
                     recoveryProtocolName(
                         static_cast<RecoveryProtocol>(e.arg8)),
                     e.at, tid, e.arg64);
                break;
              case EventType::kRecoveryOutcome:
                emit("{\"name\": \"recovered_%s\", \"cat\": "
                     "\"recovery\", \"ph\": \"i\", \"s\": \"t\", "
                     "\"ts\": %" PRIu64 ", \"pid\": 0, \"tid\": %u, "
                     "\"args\": {\"outcome\": \"%s\"}}",
                     recoveryProtocolName(
                         static_cast<RecoveryProtocol>(e.arg8)),
                     e.at, tid,
                     recoveryOutcomeName(
                         static_cast<RecoveryOutcome>(e.arg64)));
                break;
            }
        });

        // Close anything still open at the thread's last timestamp so
        // every span in the export has a definite extent.
        for (auto &[name, stack] : open) {
            const char *cat = name == "stw" ? "stw"
                              : name == "quarantine_blocked" ? "alloc"
                                                             : "phase";
            while (!stack.empty()) {
                x_span(cat, name, stack.back(), max_ts);
                stack.pop_back();
            }
        }
        if (run_open)
            emit("{\"name\": \"run\", \"cat\": \"sched\", "
                 "\"ph\": \"X\", \"ts\": %" PRIu64 ", \"dur\": %" PRIu64
                 ", \"pid\": 1, \"tid\": %u, \"args\": {\"core\": %u}}",
                 run_begin, max_ts - run_begin, tid, run_core);
    }

    out += "\n]\n}\n";
    return out;
}

PhaseSummary
summarize(const Tracer &tracer)
{
    PhaseSummary s;
    s.dropped = tracer.totalDropped();

    for (unsigned tid = 0; tid < tracer.numThreads(); ++tid) {
        const TraceBuffer *b = tracer.buffer(tid);
        if (b == nullptr)
            continue;

        std::vector<Cycles> phase_open[kNumPhases];
        std::vector<Cycles> stw_open;
        std::vector<Cycles> block_open;

        b->forEach([&](const Event &e) {
            ++s.events;
            switch (e.type) {
              case EventType::kPhaseBegin:
                phase_open[e.arg8 % kNumPhases].push_back(e.at);
                break;
              case EventType::kPhaseEnd: {
                auto &stack = phase_open[e.arg8 % kNumPhases];
                if (stack.empty()) {
                    ++s.unmatched;
                } else {
                    addSpan(s.phases[e.arg8 % kNumPhases],
                            stack.back(), e.at);
                    stack.pop_back();
                }
                break;
              }
              case EventType::kStwBegin:
                stw_open.push_back(e.at);
                break;
              case EventType::kStwEnd:
                if (stw_open.empty()) {
                    ++s.unmatched;
                } else {
                    addSpan(s.stw, stw_open.back(), e.at);
                    stw_open.pop_back();
                }
                break;
              case EventType::kQuarantineBlock:
                block_open.push_back(e.at);
                break;
              case EventType::kQuarantineUnblock:
                if (block_open.empty()) {
                    ++s.unmatched;
                } else {
                    addSpan(s.quarantine_blocked, block_open.back(),
                            e.at);
                    block_open.pop_back();
                }
                break;
              case EventType::kTlbShootdown:
                ++s.tlb_shootdowns;
                break;
              case EventType::kWatchdogEscalate:
                ++s.watchdog_escalations;
                break;
              case EventType::kFaultInject:
                ++s.faults_injected;
                break;
              case EventType::kRecoveryAttempt:
                ++s.recovery_attempts;
                break;
              case EventType::kRecoveryOutcome:
                ++s.recovery_outcomes;
                break;
              default:
                break;
            }
        });

        for (const auto &stack : phase_open)
            s.unmatched += stack.size();
        s.unmatched += stw_open.size() + block_open.size();
    }
    return s;
}

std::string
phaseSummaryText(const PhaseSummary &s)
{
    std::string out;
    char buf[256];
    auto row = [&](const char *name, const PhaseStat &st) {
        if (st.spans == 0) {
            std::snprintf(buf, sizeof(buf),
                          "  %-18s %8s %12s %9s %9s %9s\n", name, "-",
                          "-", "-", "-", "-");
        } else {
            std::snprintf(
                buf, sizeof(buf),
                "  %-18s %8" PRIu64 " %12.1f %9.1f %9.1f %9.1f\n",
                name, st.spans, cyclesToMicros(st.total_cycles),
                st.micros.percentile(0.25), st.micros.median(),
                st.micros.percentile(0.75));
        }
        out += buf;
    };

    out += "phase decomposition from trace (microseconds):\n";
    std::snprintf(buf, sizeof(buf), "  %-18s %8s %12s %9s %9s %9s\n",
                  "phase", "spans", "total_us", "p25", "median", "p75");
    out += buf;
    row("stw(windows)", s.stw);
    for (unsigned p = 0; p < kNumPhases; ++p)
        row(phaseName(static_cast<Phase>(p)), s.phases[p]);
    row("quarantine_block", s.quarantine_blocked);
    std::snprintf(buf, sizeof(buf),
                  "  shootdowns=%" PRIu64 " escalations=%" PRIu64
                  " injected=%" PRIu64 " recoveries=%" PRIu64 "/%" PRIu64
                  " events=%" PRIu64 " dropped=%" PRIu64
                  " unmatched=%" PRIu64 "\n",
                  s.tlb_shootdowns, s.watchdog_escalations,
                  s.faults_injected, s.recovery_attempts,
                  s.recovery_outcomes, s.events, s.dropped, s.unmatched);
    out += buf;
    return out;
}

} // namespace crev::trace
