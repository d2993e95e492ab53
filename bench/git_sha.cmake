# Build-time stamp of the tree the benches are built from (bench/CMakeLists.txt
# runs this on every build). Writes OUT, a C++ file defining
# flexran::bench::kGitSha: the short HEAD SHA, with "+dirty" appended when the
# work tree has uncommitted changes, or "unknown" outside a git checkout. OUT
# is rewritten only when its text changes, so an unchanged tree rebuilds
# nothing.
#   cmake -DSOURCE_DIR=<repo> -DOUT=<file.cpp> -P bench/git_sha.cmake
execute_process(COMMAND git rev-parse --short HEAD
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE sha
                OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE status
                ERROR_QUIET)
if(NOT status EQUAL 0 OR NOT sha)
  set(sha "unknown")
else()
  execute_process(COMMAND git status --porcelain
                  WORKING_DIRECTORY ${SOURCE_DIR}
                  OUTPUT_VARIABLE changes
                  ERROR_QUIET)
  if(changes)
    string(APPEND sha "+dirty")
  endif()
endif()

set(text "// Generated by bench/git_sha.cmake, do not edit.
namespace flexran::bench {
extern const char* const kGitSha;
const char* const kGitSha = \"${sha}\";
}  // namespace flexran::bench
")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
