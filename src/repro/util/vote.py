"""Bit-sliced per-lane majority vote over lane-bitmask ballots.

One kernel serves both voters of the system: the ``reread-vote``
recovery policy (:mod:`repro.reliability.recovery`) votes an odd number
of re-senses of one column, and serve's redundant execution
(:mod:`repro.serve.service`) votes a panel of arrays' outputs, plus a
CPU referee whenever the panel could tie.
"""

from __future__ import annotations

__all__ = ["majority"]


def majority(ballots: list[int], mask: int) -> int:
    """Per-lane strict majority of an odd number of lane bitmasks.

    Three ballots use the closed form.  More run a bit-sliced
    ripple-carry counter — ``planes[i]`` holds the lanes whose count has
    bit ``i`` set — and a lane-parallel compare against the threshold
    ``len(ballots) // 2 + 1``.  The counter starts with every plane the
    threshold has, so lanes no ballot set compare as zero.
    """
    if len(ballots) == 3:
        a, b, c = ballots
        return (a & b) | (a & c) | (b & c)
    need = len(ballots) // 2 + 1
    planes = [0] * need.bit_length()
    for ballot in ballots:
        carry = ballot
        for i in range(len(planes)):
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    greater = 0
    equal = mask
    for i in reversed(range(len(planes))):
        if (need >> i) & 1:
            equal &= planes[i]
        else:
            greater |= equal & planes[i]
            equal &= ~planes[i] & mask
    return greater | equal
