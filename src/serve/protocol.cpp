#include "serve/protocol.hpp"

#include <utility>

#include "util/json.hpp"
#include "util/json_fields.hpp"

namespace retri::serve {

namespace {

util::JsonWriter typed(std::string_view type) {
  util::JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.member("type", type);
  return json;
}

/// A `type` message whose other members are T's field list.
template <class T>
std::string encode_message(std::string_view type, const T& body) {
  util::JsonWriter json = typed(type);
  util::write_fields(json, body);
  json.end_object();
  return std::move(json).take();
}

/// Reads a `type` message through T's field list. Every listed field must
/// be present with the right kind; the error names the first that is not.
template <class T>
std::string read_message(const util::JsonValue& doc, std::string_view type,
                         T& out) {
  if (message_type(doc) != type) {
    return std::string(type) + ": wrong message type";
  }
  std::string err;
  if (!util::read_json(doc, out, err)) return std::string(type) + ": " + err;
  return {};
}

/// One of ServeEvent's two wire shapes, as the fields() list the walker
/// expects.
template <class Event, ServeEvent::Kind kKind>
struct EventMessage {
  Event& event;

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    if constexpr (kKind == ServeEvent::Kind::kTrial) {
      ServeEvent::trial_fields(s.event, f);
    } else {
      ServeEvent::done_fields(s.event, f);
    }
  }
};

}  // namespace

std::string encode_submit(const runner::SweepSpec& spec) {
  util::JsonWriter json = typed("submit");
  json.key("spec");
  write_sweep_spec(json, spec);
  json.end_object();
  return std::move(json).take();
}

std::string encode_status_request() {
  util::JsonWriter json = typed("status");
  json.end_object();
  return std::move(json).take();
}

std::string encode_shutdown() {
  util::JsonWriter json = typed("shutdown");
  json.end_object();
  return std::move(json).take();
}

std::string encode_accepted(const Submitted& submitted) {
  return encode_message("accepted", submitted);
}

std::string encode_rejected(const Rejection& rejection) {
  return encode_message("rejected", rejection);
}

std::string encode_event(const ServeEvent& event) {
  if (event.kind == ServeEvent::Kind::kTrial) {
    return encode_message(
        "trial",
        EventMessage<const ServeEvent, ServeEvent::Kind::kTrial>{event});
  }
  return encode_message(
      "done", EventMessage<const ServeEvent, ServeEvent::Kind::kJobDone>{event});
}

std::string encode_status(const ServerStatus& status) {
  return encode_message("status", status);
}

std::string encode_error(std::string_view message) {
  util::JsonWriter json = typed("error");
  json.member("message", message);
  json.end_object();
  return std::move(json).take();
}

std::string encode_bye() {
  util::JsonWriter json = typed("bye");
  json.end_object();
  return std::move(json).take();
}

std::string message_type(const util::JsonValue& doc) {
  return doc.is_object() ? doc.str("type") : std::string();
}

util::Result<Submitted, std::string> decode_accepted(
    const util::JsonValue& doc) {
  Submitted submitted;
  if (std::string err = read_message(doc, "accepted", submitted);
      !err.empty()) {
    return err;
  }
  if (submitted.job_id.empty()) return std::string("accepted: missing job id");
  return submitted;
}

util::Result<Rejection, std::string> decode_rejected(
    const util::JsonValue& doc) {
  Rejection rejection;
  if (std::string err = read_message(doc, "rejected", rejection);
      !err.empty()) {
    return err;
  }
  return rejection;
}

util::Result<ServeEvent, std::string> decode_event(const util::JsonValue& doc) {
  const std::string type = message_type(doc);
  ServeEvent event;
  if (type == "trial") {
    event.kind = ServeEvent::Kind::kTrial;
    EventMessage<ServeEvent, ServeEvent::Kind::kTrial> message{event};
    if (std::string err = read_message(doc, "trial", message); !err.empty()) {
      return err;
    }
    return event;
  }
  if (type == "done") {
    event.kind = ServeEvent::Kind::kJobDone;
    EventMessage<ServeEvent, ServeEvent::Kind::kJobDone> message{event};
    if (std::string err = read_message(doc, "done", message); !err.empty()) {
      return err;
    }
    return event;
  }
  return "event: unexpected message type \"" + type + "\"";
}

util::Result<ServerStatus, std::string> decode_status(
    const util::JsonValue& doc) {
  ServerStatus status;
  if (std::string err = read_message(doc, "status", status); !err.empty()) {
    return err;
  }
  return status;
}

}  // namespace retri::serve
