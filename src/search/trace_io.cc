#include "search/trace_io.h"

#include <cstdio>

namespace volcano {

namespace {

void AppendEscaped(const char* s, std::string* out) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendNumber(const char* key, double v, std::string* out) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ", \"%s\": %.6g", key, v);
  out->append(buf);
}

}  // namespace

void JsonTraceSink::OnEvent(const TraceEvent& event) {
  std::string line;
  line.reserve(128);
  line.append("{\"seq\": ");
  line.append(std::to_string(seq_++));
  line.append(", \"event\": \"");
  line.append(TraceEventKindName(event.kind));
  line.push_back('"');
  if (event.group != kTraceNoId) {
    line.append(", \"group\": ");
    line.append(std::to_string(event.group));
  }
  if (event.other != kTraceNoId) {
    // `other` is the merge loser for groups_merged and the expression serial
    // for mexpr_created; name the field accordingly.
    line.append(event.kind == TraceEventKind::kGroupsMerged ? ", \"merged\": "
                                                            : ", \"mexpr\": ");
    line.append(std::to_string(event.other));
  }
  if (event.rule_id != kTraceNoId) {
    line.append(", \"rule_id\": ");
    line.append(std::to_string(event.rule_id));
  }
  if (event.rule != nullptr) {
    line.append(", \"rule\": \"");
    AppendEscaped(event.rule, &line);
    line.push_back('"');
  }
  if (event.detail != nullptr) {
    line.append(", \"detail\": \"");
    AppendEscaped(event.detail, &line);
    line.push_back('"');
  }
  switch (event.kind) {
    case TraceEventKind::kRuleFired:
      line.append(", \"applied\": ");
      line.append(std::to_string(event.count));
      break;
    case TraceEventKind::kAlgorithmPursued:
    case TraceEventKind::kEnforcerPursued:
      AppendNumber("promise", event.promise, &line);
      break;
    case TraceEventKind::kMovePruned:
      AppendNumber("bound", event.cost, &line);
      break;
    case TraceEventKind::kWinnerInstalled:
    case TraceEventKind::kWinnerImproved:
      AppendNumber("cost", event.cost, &line);
      break;
    default:
      break;
  }
  line.append("}\n");
  out_ << line;
}

void TraceLog::OnEvent(const TraceEvent& event) {
  Entry e;
  e.event = event;
  if (event.rule != nullptr) e.rule = event.rule;
  if (event.detail != nullptr) e.detail = event.detail;
  // The borrowed pointers in e.event may dangle once the emitting optimizer
  // dies; null them so consumers can only reach the owned copies.
  e.event.rule = nullptr;
  e.event.detail = nullptr;
  entries_.push_back(std::move(e));
}

size_t TraceLog::CountOf(TraceEventKind kind) const {
  size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.event.kind == kind) ++n;
  }
  return n;
}

}  // namespace volcano
