// Message bodies for the serve wire protocol (framing in serve/wire.hpp).
//
// Every body is a compact JSON object with a "type" member. Both directions
// are encoded and decoded here — the daemon and client link the same
// functions, so a protocol change cannot desynchronize them, and round-trip
// tests cover the protocol without opening a socket.
//
//   client → server:  submit {spec}         status {}        shutdown {}
//   server → client:  accepted {job,...}    rejected {...}   trial {...}
//                     done {job,...}        status {...}     error {...}
//                     bye {}
#pragma once

#include <string>
#include <string_view>

#include "serve/server.hpp"
#include "util/json_parse.hpp"
#include "util/result.hpp"

namespace retri::serve {

// --- requests --------------------------------------------------------------

std::string encode_submit(const runner::SweepSpec& spec);
std::string encode_status_request();
std::string encode_shutdown();

// --- responses -------------------------------------------------------------

std::string encode_accepted(const Submitted& submitted);
std::string encode_rejected(const Rejection& rejection);
/// Renders either event kind ("trial" or "done").
std::string encode_event(const ServeEvent& event);
std::string encode_status(const ServerStatus& status);
std::string encode_error(std::string_view message);
std::string encode_bye();

// --- decoding --------------------------------------------------------------
//
// Strict, like the codec: each message is read through its field list
// (Submitted, Rejection, ServeEvent, ServerStatus), so a missing or
// wrong-kind member is an error naming it, never a silent 0.

/// The "type" member, or empty for non-objects / missing type.
std::string message_type(const util::JsonValue& doc);

util::Result<Submitted, std::string> decode_accepted(
    const util::JsonValue& doc);
util::Result<Rejection, std::string> decode_rejected(
    const util::JsonValue& doc);
/// Decodes a "trial" or "done" message back into a ServeEvent.
util::Result<ServeEvent, std::string> decode_event(const util::JsonValue& doc);
util::Result<ServerStatus, std::string> decode_status(
    const util::JsonValue& doc);

}  // namespace retri::serve
