"""Masked reference body of the wave kernel, kept as a test oracle.

:func:`repro.sim.batch._advance_wave` advances a wave block by block:
rows are grouped by packet count and sorted by route length, so every
hop touches one contiguous slice and the ejection-credit exemption and
the delivery hop are slice boundaries.  The function below is the form
it replaced: every packet of every row runs over the full ``(row x
hop)`` arrays, with masks selecting the active packets, the live hops,
the credited hops and the delivery hop.  Tests hold the blocked kernel
to it bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["advance_wave"]


def advance_wave(cal, limit, f0, links, length, caps, pieces, last_size):
    """Advance one wave of isolated messages through the recurrence.

    All arrays are per-message rows (R messages).  Returns
    ``(inject, finish, host_tail, enter, exit)`` where ``enter``/``exit``
    bound each message's occupancy of each of its route links.
    """
    R = links.shape[0]
    H = int(length.max())
    links = links[:, :H]
    caps = caps[:, :H]
    mtu = float(cal.mtu)
    wire = cal.wire_latency
    swl = cal.switch_latency
    pmax = int(pieces.max())

    prev_tail = np.full((R, H), -np.inf)
    enter = np.full((R, H), np.inf)
    f = f0.astype(np.float64, copy=True)
    inject = np.empty(R)
    finish = np.empty(R)
    ring = None
    if limit is not None:
        # rel[j-limit, h] lives in slot (j % limit): it is read for
        # packet j at hop h just before packet j's hop h+1 overwrites it.
        ring = np.full((R, H, limit), -np.inf)

    for j in range(pmax):
        pact = j < pieces
        is_last = j == pieces - 1
        psize = np.where(is_last, last_size, mtu)

        # Hop 0: the host sends when the previous tail left the wire
        # and (finite buffers) the leaf advertised a credit.
        s = f
        if ring is not None:
            s = np.maximum(s, ring[:, 0, j % limit])
        tail = s + psize / caps[:, 0]
        if j == 0:
            inject = s.copy()
            enter[:, 0] = s
        f = np.where(pact, tail, f)
        prev_tail[:, 0] = np.where(pact, tail, prev_tail[:, 0])

        s_prev = s
        for h in range(1, H):
            hact = pact & (h < length)
            a = s_prev + wire
            s = np.maximum(a + swl, prev_tail[:, h])
            if ring is not None:
                # The ejection link never blocks on credits (the host
                # drains unconditionally): mask the final hop out.
                cr = np.where(h < length - 1, ring[:, h, j % limit], -np.inf)
                s = np.maximum(s, cr)
            tail_h = s + psize / caps[:, h]
            if ring is not None:
                ring[:, h - 1, j % limit] = np.where(
                    hact, tail_h, ring[:, h - 1, j % limit])
            prev_tail[:, h] = np.where(hact, tail_h, prev_tail[:, h])
            enter[:, h] = np.where(hact, np.minimum(enter[:, h], a),
                                   enter[:, h])
            fin_mask = hact & is_last & (h == length - 1)
            if fin_mask.any():
                # Cut-through delivery: header reaches the host a wire
                # latency after the ejection transmit starts, the tail
                # one serialisation later.
                deliver = (s + wire) + psize / caps[:, h]
                finish = np.where(fin_mask, deliver, finish)
            s_prev = s

    exit_ = prev_tail.copy()
    if ring is not None:
        # With finite buffers a message still owns a slot on link h
        # until its tail clears link h+1.
        for h in range(H - 1):
            exit_[:, h] = np.maximum(exit_[:, h], prev_tail[:, h + 1])
    return inject, finish, f, enter, exit_
