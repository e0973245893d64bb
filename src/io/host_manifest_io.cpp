#include "io/host_manifest_io.h"

#include <set>

#include "io/config_loader.h"
#include "support/error.h"

namespace ecochip {

namespace {

/** Placeholders the shard dispatcher can expand. */
const std::set<std::string> &
allowedPlaceholders()
{
    static const std::set<std::string> names = {
        "host",   "worker",  "sub_batch",      "report",
        "events", "threads", "scenarios_args"};
    return names;
}

/** The allowed-placeholder list for error messages. */
std::string
placeholderList()
{
    std::string out;
    for (const auto &name : allowedPlaceholders()) {
        if (!out.empty())
            out += ", ";
        out += "{" + name + "}";
    }
    return out;
}

} // namespace

int
HostManifest::totalSlots() const
{
    int total = 0;
    for (const auto &host : hosts)
        total += host.slots;
    return total;
}

void
validateCommandTemplate(const std::string &command_template,
                        const std::string &context)
{
    for (std::size_t i = 0; i < command_template.size(); ++i) {
        if (command_template[i] != '{')
            continue;
        const std::size_t close = command_template.find('}', i);
        requireConfig(close != std::string::npos,
                      context +
                          ": unterminated '{' in command "
                          "template");
        const std::string name =
            command_template.substr(i + 1, close - i - 1);
        requireConfig(allowedPlaceholders().count(name) == 1,
                      context +
                          ": unknown command-template "
                          "placeholder \"{" +
                          name + "}\" (allowed: " +
                          placeholderList() + ")");
        i = close;
    }
}

std::string
expandCommandTemplate(
    const std::string &command_template,
    const std::vector<std::pair<std::string, std::string>>
        &values)
{
    std::string out;
    out.reserve(command_template.size());
    for (std::size_t i = 0; i < command_template.size(); ++i) {
        if (command_template[i] != '{') {
            out += command_template[i];
            continue;
        }
        const std::size_t close = command_template.find('}', i);
        requireConfig(close != std::string::npos,
                      "unterminated '{' in command template");
        const std::string name =
            command_template.substr(i + 1, close - i - 1);
        bool found = false;
        for (const auto &[key, value] : values) {
            if (key == name) {
                out += value;
                found = true;
                break;
            }
        }
        requireConfig(found,
                      "command-template placeholder \"{" + name +
                          "}\" has no value in this dispatch");
        i = close;
    }
    return out;
}

HostManifest
hostManifestFromJson(const json::Value &doc,
                     const std::string &context)
{
    requireConfig(doc.isObject(),
                  context +
                      ": host manifest must be a JSON object "
                      "{\"hosts\": [...]}");
    rejectUnknownKeys(doc, {"hosts"}, context);
    requireConfig(doc.contains("hosts"),
                  context + ": missing \"hosts\"");
    const auto &entries = doc.at("hosts").asArray();
    requireConfig(!entries.empty(),
                  context + ": \"hosts\" names no hosts");

    HostManifest manifest;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string entry_context =
            context + ": hosts[" + std::to_string(i) + "]";
        const json::Value &entry = entries[i];
        requireConfig(entry.isObject(),
                      entry_context + ": must be an object");
        rejectUnknownKeys(entry, {"name", "slots", "command"},
                          entry_context);

        HostSpec host;
        requireConfig(entry.contains("name"),
                      entry_context + ": missing \"name\"");
        host.name = entry.at("name").asString();
        requireConfig(!host.name.empty(),
                      entry_context + ": \"name\" is empty");
        requireConfig(seen.insert(host.name).second,
                      context + ": duplicate host \"" +
                          host.name + "\"");

        if (entry.contains("slots")) {
            const auto slots = entry.at("slots").asInteger();
            requireConfig(
                slots >= 1 && slots <= 4096,
                entry_context + " (\"" + host.name +
                    "\"): \"slots\" must be in [1, 4096], got " +
                    std::to_string(slots));
            host.slots = static_cast<int>(slots);
        }

        if (entry.contains("command")) {
            host.command = entry.at("command").asString();
            requireConfig(
                !host.command.empty(),
                entry_context + " (\"" + host.name +
                    "\"): \"command\" is empty (omit it for "
                    "the local transport)");
            validateCommandTemplate(host.command,
                                    entry_context + " (\"" +
                                        host.name + "\")");
        }

        manifest.hosts.push_back(std::move(host));
    }
    return manifest;
}

HostManifest
loadHostManifest(const std::string &path)
{
    return hostManifestFromJson(json::parseFile(path), path);
}

} // namespace ecochip
