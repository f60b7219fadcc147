#include "trace/serialize.hh"

#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "base/fileio.hh"
#include "base/fmt.hh"

namespace goat::trace {

const char *
internString(const std::string &s)
{
    static std::unordered_set<std::string> pool;
    static std::mutex mtx;
    std::lock_guard<std::mutex> guard(mtx);
    return pool.insert(s).first->c_str();
}

void
writeEct(const Ect &ect, std::ostream &os)
{
    for (const auto &[k, v] : ect.metaAll())
        os << "# " << k << ' ' << v << '\n';
    for (const auto &ev : ect.events()) {
        os << ev.ts << ' ' << ev.gid << ' ' << eventTypeName(ev.type) << ' '
           << ev.loc.basename() << ' ' << ev.loc.line << ' ' << ev.args[0]
           << ' ' << ev.args[1] << ' ' << ev.args[2] << ' ' << ev.args[3];
        if (ev.strIdx)
            os << " |" << ect.str(ev);
        os << '\n';
    }
}

std::string
ectToString(const Ect &ect)
{
    std::ostringstream oss;
    writeEct(ect, oss);
    return oss.str();
}

bool
writeEctFile(const Ect &ect, const std::string &path)
{
    return atomicWriteFile(path, ectToString(ect));
}

bool
readEct(std::istream &in, Ect &ect)
{
    ect.clear();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream ls(line.substr(1));
            std::string key;
            if (!(ls >> key))
                continue;
            std::string value;
            std::getline(ls, value);
            ect.setMeta(key, strTrim(value));
            continue;
        }
        std::istringstream ls(line);
        Event ev;
        std::string type_name, file;
        uint32_t loc_line = 0;
        if (!(ls >> ev.ts >> ev.gid >> type_name >> file >> loc_line >>
              ev.args[0] >> ev.args[1] >> ev.args[2] >> ev.args[3])) {
            return false;
        }
        ev.type = eventTypeFromName(type_name);
        if (ev.type == EventType::NumEventTypes)
            return false;
        ev.loc = SourceLoc(internString(file), loc_line);
        std::string rest;
        std::getline(ls, rest);
        rest = strTrim(rest);
        if (rest.size() > 1 && rest[0] == '|')
            ect.setStr(ev, rest.substr(1));
        ect.append(ev);
    }
    return true;
}

bool
ectFromString(const std::string &text, Ect &ect)
{
    std::istringstream iss(text);
    return readEct(iss, ect);
}

bool
readEctFile(const std::string &path, Ect &ect)
{
    std::ifstream ifs(path);
    if (!ifs)
        return false;
    return readEct(ifs, ect);
}

} // namespace goat::trace
