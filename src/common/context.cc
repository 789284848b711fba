#include "common/context.h"

namespace stmaker {

Status RequestContext::Check() const {
  if (expired()) {
    return Status::DeadlineExceeded("request deadline exceeded");
  }
  return Status::OK();
}

}  // namespace stmaker
