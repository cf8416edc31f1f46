import os
import time

import pytest

from asdnlms.parallel import _forked, _receive


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "waitid")),
                    reason="needs os.fork and os.waitid")
@pytest.mark.parametrize("sent", [0, 1], ids=["before_its_first_send", "mid_stream"])
def test_child_exits_at_its_next_send_once_the_parent_is_gone(sent, forks):
    # a batch worker whose parent has died: this process plays the parent,
    # and closing its read end plays the death
    go_read, go = os.pipe()

    def body(send):
        for k in range(sent):
            send(k)
        os.read(go_read, 1)  # until the read end is closed
        send(sent)

    try:
        with _forked(body, ()) as pipe:
            for k in range(sent):
                assert _receive(pipe, "no object") == k
            pipe.close()
            os.write(go, b"x")
            for _ in range(3000):  # 30 s; WNOWAIT leaves the child for _forked to reap
                exited = os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOHANG | os.WNOWAIT)
                if exited:
                    break
                time.sleep(0.01)
    finally:
        os.close(go)
        os.close(go_read)
    assert exited, "the child hangs"
    assert (exited.si_code, exited.si_status) == (os.CLD_EXITED, 1)  # BrokenPipeError
