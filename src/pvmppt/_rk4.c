/* RK4 sub-steps of the averaged boost plant on a uniform-grid current table.
 *
 * The loop of pvmppt.converter._python_advance, the same operations in the
 * same order, with the lookup of pvmppt.converter.PlantCurve inlined.  Every
 * expression keeps the Python operation order, so that a build without
 * floating-point contraction (-ffp-contract=off) and without -ffast-math
 * gives the same bits.  Plain C, no Python.h: pvmppt.converter compiles it
 * on first use and calls it through ctypes.
 *
 * state holds (v_pv, i_L) on entry and, on a zero return, on exit.  A
 * non-zero return means a lookup met a NaN voltage or would step off the
 * table; state is then left as it came and the caller runs the Python loop,
 * which raises what it raises. */

/* The plant: its current table, as PlantCurve builds it, and the constants
 * of pvmppt.converter._plant_constants. */
struct plant {
    const double *tab; /* source current every h volts from 0 V */
    long n;            /* number of samples in tab */
    double h, v_top, i_short;
    double inv_c, inv_l, r_l, w_floor;
};

static inline int lookup(const struct plant *p, double v, double *i)
{
    if (v <= 0.0) {
        *i = p->i_short;
        return 0;
    }
    if (v >= p->v_top) {
        *i = 0.0;
        return 0;
    }
    double x = v / p->h;
    if (!(x >= 0.0 && x < (double)(p->n - 1)))
        return 1;
    long j = (long)x;
    double fr = x - (double)j;
    *i = p->tab[j] + (p->tab[j + 1] - p->tab[j]) * fr;
    return 0;
}

/* One RK4 sub-step of (*v, *il) at output-side voltage w. */
static inline int substep(const struct plant *p, double w, double dt, double *pv, double *pil)
{
    double inv_c = p->inv_c, inv_l = p->inv_l, r_l = p->r_l;
    double v = *pv, il = *pil;
    double s1, s2, s3, s4; /* the source current at each stage */
    if (lookup(p, v, &s1))
        return 1;
    double k1v = (s1 - il) * inv_c;
    double k1i = (v - r_l * il - w) * inv_l;
    double v2 = v + 0.5 * dt * k1v, i2 = il + 0.5 * dt * k1i;
    if (lookup(p, v2, &s2))
        return 1;
    double k2v = (s2 - i2) * inv_c;
    double k2i = (v2 - r_l * i2 - w) * inv_l;
    double v3 = v + 0.5 * dt * k2v, i3 = il + 0.5 * dt * k2i;
    if (lookup(p, v3, &s3))
        return 1;
    double k3v = (s3 - i3) * inv_c;
    double k3i = (v3 - r_l * i3 - w) * inv_l;
    double v4 = v + dt * k3v, i4 = il + dt * k3i;
    if (lookup(p, v4, &s4))
        return 1;
    double k4v = (s4 - i4) * inv_c;
    double k4i = (v4 - r_l * i4 - w) * inv_l;
    v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
    il += dt / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i);
    if (il < 0.0)
        il = 0.0;
    if (v < 0.0)
        v = 0.0;
    *pv = v;
    *pil = il;
    return 0;
}

/* n_ticks ticks of n_sub sub-steps; sub-step k of the call holds
 * w0 + dw*(k + 0.5), floored at w_floor.  Unless v_at is NULL, v_at[t] and
 * i_at[t] get v_pv and the source current at the start of tick t. */
int pvmppt_rk4_advance(double *state, double w0, double dw, long n_ticks, long n_sub, double dt,
                       const struct plant *p, double *v_at, double *i_at)
{
    double v = state[0], il = state[1];
    for (long t = 0; t < n_ticks; t++) {
        if (v_at) {
            v_at[t] = v;
            if (lookup(p, v, &i_at[t]))
                return 1;
        }
        for (long k = t * n_sub; k < (t + 1) * n_sub; k++) {
            double x = w0 + dw * ((double)k + 0.5);
            if (substep(p, x > p->w_floor ? x : p->w_floor, dt, &v, &il))
                return 1;
        }
    }
    state[0] = v;
    state[1] = il;
    return 0;
}
