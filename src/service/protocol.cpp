#include "service/protocol.hpp"

#include "support/json.hpp"
#include "support/report_writer.hpp"

namespace sparcs::service {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool parse_submit(const json::Value& root, SubmitRequest* out,
                  std::string* error) {
  out->workload = root.member_string("workload");
  out->graph_text = root.member_string("graph_text");
  if (out->workload.empty() == out->graph_text.empty()) {
    return fail(error, "submit needs exactly one of workload or graph_text");
  }
  out->priority = static_cast<int>(root.member_int("priority", 0));
  out->detach = root.member_bool("detach", false);
  const json::Value* options = root.find("options");
  if (options != nullptr) {
    if (!options->is_object()) return fail(error, "options must be an object");
    if (const json::Value* v = options->find("rmax")) {
      out->rmax = v->as_double();
    }
    if (const json::Value* v = options->find("mmax")) {
      out->mmax = v->as_double();
    }
    if (const json::Value* v = options->find("ct")) out->ct = v->as_double();
    out->delta = options->member_double("delta", out->delta);
    out->alpha = static_cast<int>(options->member_int("alpha", out->alpha));
    out->gamma = static_cast<int>(options->member_int("gamma", out->gamma));
    out->time_limit_sec =
        options->member_double("time_limit_sec", out->time_limit_sec);
    out->deadline_sec =
        options->member_double("deadline_sec", out->deadline_sec);
    out->certify = options->member_string("certify", out->certify);
    out->checkpoint = options->member_bool("checkpoint", out->checkpoint);
    out->est_memory_mb =
        options->member_double("est_memory_mb", out->est_memory_mb);
  }
  if (out->time_limit_sec <= 0.0) {
    return fail(error, "options.time_limit_sec must be > 0");
  }
  if (out->deadline_sec < 0.0) {
    return fail(error, "options.deadline_sec must be >= 0");
  }
  if (out->est_memory_mb < 0.0) {
    return fail(error, "options.est_memory_mb must be >= 0");
  }
  if (out->certify != "off" && out->certify != "incumbents" &&
      out->certify != "full") {
    return fail(error, "options.certify must be off, incumbents or full");
  }
  return true;
}

}  // namespace

bool parse_request(const std::string& line, Request* out, std::string* error) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.ok) return fail(error, "malformed JSON: " + parsed.error);
  const json::Value& root = parsed.value;
  if (!root.is_object()) return fail(error, "request must be a JSON object");
  out->op = root.member_string("op");
  if (out->op.empty()) return fail(error, "missing op");
  out->job = root.member_string("job");
  out->wait = root.member_bool("wait", false);
  if (out->op == "submit") {
    return parse_submit(root, &out->submit, error);
  }
  if (out->op == "status" || out->op == "result" || out->op == "cancel") {
    if (out->job.empty()) return fail(error, out->op + " needs a job id");
    return true;
  }
  if (out->op == "list" || out->op == "shutdown") return true;
  return fail(error, "unknown op '" + out->op + "'");
}

std::string serialize_request(const Request& request) {
  report::ReportWriter w;
  w.begin_object();
  w.field("op", request.op);
  if (!request.job.empty()) w.field("job", request.job);
  if (request.wait) w.field("wait", true);
  if (request.op == "submit") {
    const SubmitRequest& s = request.submit;
    if (!s.workload.empty()) w.field("workload", s.workload);
    if (!s.graph_text.empty()) w.field("graph_text", s.graph_text);
    if (s.priority != 0) w.field("priority", s.priority);
    if (s.detach) w.field("detach", true);
    w.begin_object("options");
    if (s.rmax) w.field("rmax", *s.rmax);
    if (s.mmax) w.field("mmax", *s.mmax);
    if (s.ct) w.field("ct", *s.ct);
    w.field("delta", s.delta);
    w.field("alpha", s.alpha);
    w.field("gamma", s.gamma);
    w.field("time_limit_sec", s.time_limit_sec);
    w.field("deadline_sec", s.deadline_sec);
    w.field("certify", s.certify);
    w.field("checkpoint", s.checkpoint);
    if (s.est_memory_mb > 0.0) w.field("est_memory_mb", s.est_memory_mb);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string error_response(const std::string& op, const std::string& code,
                           const std::string& message) {
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", false);
  w.field("op", op.empty() ? "unknown" : op);
  w.begin_object("error");
  w.field("code", code);
  w.field("message", message);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace sparcs::service
