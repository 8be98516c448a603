# Recovering the gate itself from an uncharacterized realization.
#
# Start from a dilated (junk-extended, randomly rotated) copy of the
# reference network, where no site is a bare qubit any more.  Local frames
# read off the qubit inside each site, the swap isometries pull the sources
# back to maximally entangled pairs, and the hidden operation reassembles
# into the target gate up to a global phase.

import numpy as np

from gatecert import Extraction, dilate, gate, phi_plus, reference_realization


def main():
    u = gate("cnot", 2)
    real = dilate(reference_realization(2, u), junk_dim=3, seed=42)
    print("site dimensions after dilation:", real.layout().dims)

    ext = Extraction(real, u)
    frames = ext.frames
    phi = phi_plus().amplitudes
    for i, (fa, fl) in enumerate(zip(frames.a, frames.l), start=1):
        ka, kb = fa.isometry(), fl.isometry()
        da, db = ka.shape[1], kb.shape[1]
        vec = np.kron(ka, kb) @ real.sources[i - 1].amplitudes
        m = vec.reshape(2, da, 2, db).transpose(0, 2, 1, 3).reshape(4, da * db)
        fid = float(np.real(phi.conj() @ (m @ m.conj().T) @ phi))
        print(f"source {i}: extracted pair overlaps phi+ with fidelity {fid:.12f}")

    dists = ext.measurement_distances()
    print(f"effective measurements match the {ext.branch}-branch targets "
          f"to {dists.max():.2e}")

    g, fid = ext.gate(), ext.fidelity()
    # align global phase before printing the recovered matrix
    k = np.argmax(np.abs(g))
    g = g * (u.entries.flat[k] / g.flat[k])
    print(f"extraction fidelity with the target gate: {fid:.12f}")
    print("recovered matrix (real part):")
    print(np.round(g.real, 6))


if __name__ == "__main__":
    main()
