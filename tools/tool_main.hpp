// Shared entry point of the command-line tools.
//
// Every tool keeps the 0/1/2 exit-code contract on any input: an error the
// simulator library raises (a FatalError from fatal() or RC_ASSERT, e.g. an
// impossible --cores value) or memory exhaustion ends the process with
// exit 2 and a message, never with terminate()/abort (exit 134). fatal()
// prints its reason before throwing, so only std::bad_alloc needs one here.
#pragma once

#include <cstdio>
#include <new>

#include "common/types.hpp"

namespace rc {

/// Run a tool's real main and map an escaping FatalError or
/// std::bad_alloc to exit 2. `name` prefixes the out-of-memory message.
inline int tool_main(const char* name, int (*body)(int, char**), int argc,
                     char** argv) {
  try {
    return body(argc, argv);
  } catch (const FatalError&) {
    return 2;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "%s: out of memory\n", name);
    return 2;
  }
}

}  // namespace rc
